#ifndef P2DRM_SERVER_STAGE_EXECUTOR_H_
#define P2DRM_SERVER_STAGE_EXECUTOR_H_

/// \file stage_executor.h
/// \brief The one batch orchestrator: every metered server flow runs its
/// BatchPlan (batch_pipeline.h) through a StagedBatchPipeline.
///
/// A batch's lifetime is split in two:
///
///   launch:  verify -> mutate -> reject/shed -> draw_fork        (caller)
///            -> issue fan-out onto a SignerPool, or inline        (async)
///   commit:  join the batch's ticket -> commit tail               (caller)
///
/// Submit launches a batch and returns with it in flight; Flush commits
/// everything in flight. SubmitSync is the synchronous call: the same
/// path with the window closed on one batch — it commits every batch
/// already in flight (in submit order), launches its own, joins the
/// issue stage and commits it before returning.
///
/// The caller's thread IS the dispatch thread — there is no hidden
/// scheduler thread, so everything that touches flow state outside the
/// issue callbacks (verify, mutate, draw_fork, reject, commit) runs
/// single-threaded on the caller. While batch B's signatures grind on
/// the pool, the caller's next Submit runs batch B+1's verify/mutate —
/// that is the cross-batch overlap.
///
/// Ordering and determinism contract:
///  * Verify and draw_fork run at launch, so every shared-RNG draw
///    happens on the dispatch thread in launch order — the DRBG stream
///    is the same whether a batch is streamed or run synchronously, and
///    whether it signs on a pool or inline, which is what makes
///    issuance bit-identical across all four under a fixed seed.
///  * kOverloaded sheds surface at launch (reject runs before Submit
///    returns) and never reach issue or commit — a shed item has no
///    server-side trace even with other batches in flight.
///  * Commits apply strictly in batch order, each batch's tail in
///    ascending k, on the dispatch thread. Commit points are
///    deterministic: a batch commits only when the in-flight window is
///    full (inside a later Submit), at Flush, or at a SubmitSync — never
///    opportunistically on worker completion, so the interleaving of
///    commit(B) and verify(B+n) is a pure function of the call sequence.
///  * Corollary: batches streamed concurrently must be commit-
///    independent — a flow whose verify reads state its own commit
///    writes (e.g. exchange consulting the issued-key map) may only
///    stream batches that do not depend on each other's commits.
///  * An empty batch never enters the pipeline: its on_commit runs at
///    once, it takes no window slot and commits nothing in flight.
///
/// Timings (BatchPipelineTimings): SubmitSync reports the batch's
/// dispatch-side wall spans. Flush reports per-stage BUSY time over the
/// window (pooled signing summed on the workers) against the window's wall
/// `makespan_us` (first launch to Flush end); makespan < sum-of-busy is
/// the overlap win bench_server_scaling Part G gates.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "server/batch_pipeline.h"
#include "server/signer_pool.h"

namespace p2drm {
namespace server {

/// Submit/Flush/SubmitSync batch orchestrator. Not thread-safe: one
/// instance belongs to one dispatch thread.
class StagedBatchPipeline {
 public:
  struct Config {
    /// Issue fan-out target. Null runs issue inline on the dispatch
    /// thread — still useful for the deferred-commit window (deposit
    /// flow) and for deterministic-timing tests with a non-thread-safe
    /// tick.
    SignerPool* pool = nullptr;

    /// Submit blocks (committing the oldest batch) once this many
    /// batches are in flight. Bounds memory and commit latency.
    std::size_t max_batches_in_flight = 4;

    /// Stage-timing clock (null = SteadyNowUs). With a pool it is also
    /// called from the workers to measure per-item issue busy time, so
    /// it must be thread-safe then (the TimeSourceUs contract).
    TimeSourceUs now_us;
  };

  explicit StagedBatchPipeline(Config cfg);

  /// Drains in-flight batches (their commit tails run here). Owners
  /// whose commit callbacks touch their own members must Flush in their
  /// own destructor body, before those members die.
  ~StagedBatchPipeline();

  StagedBatchPipeline(const StagedBatchPipeline&) = delete;
  StagedBatchPipeline& operator=(const StagedBatchPipeline&) = delete;

  /// Launches \p plan — verify/mutate/draw_fork on the calling thread,
  /// issue fanned out to the pool — and returns with the batch in
  /// flight. May first commit older batches to respect
  /// max_batches_in_flight. \p on_commit, when set, runs right after
  /// the batch's commit tail (still on the dispatch thread) — flows use
  /// it to hand out per-batch results. The plan's callbacks must stay
  /// valid until the batch commits; state they capture by reference
  /// must be heap-owned by the flow, not a Submit caller's stack frame.
  void Submit(BatchPlan plan, const PipelineObs* pobs = nullptr,
              std::function<void()> on_commit = nullptr);

  /// The synchronous call: commits every batch already in flight, in
  /// submit order (closing their window; its timings are dropped), then
  /// launches \p plan, joins its issue stage, commits it (running
  /// \p on_commit) and returns its dispatch-side timings.
  BatchPipelineTimings SubmitSync(BatchPlan plan,
                                  const PipelineObs* pobs = nullptr,
                                  std::function<void()> on_commit = nullptr);

  /// Joins and commits everything in flight, in batch order, and closes
  /// the timing window: returns per-stage busy sums over the window's
  /// batches plus `makespan_us` = first launch to Flush end. Resets the
  /// window; an empty window returns zeros.
  BatchPipelineTimings Flush();

  /// Batches submitted but not yet committed.
  std::size_t InFlight() const { return inflight_.size(); }

  /// Wires `<prefix>batches_in_flight` (gauge, +1 at launch, -1 at
  /// commit). Call before the first batch; nullptr detaches.
  void set_observability(obs::Registry* registry, const std::string& prefix);

 private:
  struct InFlightBatch;

  std::uint64_t Now() const;
  /// Runs \p plan up to its issue stage and queues it for commit. With
  /// \p join the issue stage is joined before returning, so the batch's
  /// issue time is the dispatch-side span; otherwise a pooled issue
  /// returns at once and its busy time is summed on the workers.
  void Launch(BatchPlan plan, const PipelineObs* pobs,
              std::function<void()> on_commit, bool join);
  void CommitHead();

  Config cfg_;
  // unique_ptr elements: issue jobs on the pool hold raw pointers into
  // the batch, so its address must survive deque growth.
  std::deque<std::unique_ptr<InFlightBatch>> inflight_;

  BatchPipelineTimings agg_;          // busy sums over the open window
  bool window_open_ = false;
  std::uint64_t window_start_us_ = 0;  // verify-t0 of the window's first launch

  obs::Registry* registry_ = nullptr;
  obs::Registry::Id gauge_inflight_ = 0;
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_STAGE_EXECUTOR_H_
