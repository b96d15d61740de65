#ifndef P2DRM_SERVER_BATCH_PIPELINE_H_
#define P2DRM_SERVER_BATCH_PIPELINE_H_

/// \file batch_pipeline.h
/// \brief The vocabulary every metered server flow shares: the per-batch
/// Plan a flow hands to server::StagedBatchPipeline (stage_executor.h),
/// the stage timings it gets back and its observability hooks.
///
/// Redeem, purchase, exchange and coin deposit all process a batch the
/// same way, so each flow supplies only its callbacks:
///
///   1. **verify** — amortized, read-only classification on the dispatch
///      thread (screened same-key signature checks, memoized certificate
///      checks, shared CRL pass). Returns the surviving item indices;
///      the flow records rejection statuses itself.
///   2. **mutate** — the flow's serialized state change (spent-set
///      inserts on each id's home shard, coin deposits at the bank).
///      This stage is the ONLY backpressure point: an item whose shard
///      queue is full comes back kOverloaded, is reported through
///      `reject`, and never reaches the issue or commit stages — by
///      construction a shed item has no server-side trace and the
///      client may retry it verbatim.
///   3. **issue** — per-item private-key work on the provider's
///      server::SignerPool, or inline on the dispatch thread when it has
///      none. Before the fan-out, `draw_fork` runs on the dispatch
///      thread for every live item in index order — the fork-drawing
///      rule that makes pooled issuance bit-identical to inline under a
///      fixed DRBG seed. A short **commit** tail then applies the result
///      mutations on the dispatch thread, again in index order.

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/errors.h"
#include "obs/trace.h"

namespace p2drm {
namespace server {

/// Injectable monotonic microsecond source for stage timings. Null means
/// "wall clock" (SteadyNowUs). A deterministic source makes
/// BatchPipelineTimings / ContentProvider::LastBatchTimings testable and
/// lets virtual-time harnesses express service cost in the same timebase
/// as wire latency. Must be safe to call from the signer pool's worker
/// threads.
using TimeSourceUs = std::function<std::uint64_t()>;

/// The default TimeSourceUs: steady_clock, microseconds.
inline std::uint64_t SteadyNowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock per-stage breakdown of pipeline work (microseconds).
/// A synchronous call (StagedBatchPipeline::SubmitSync, one batch) reports
/// dispatch-side wall spans: `issue_us` runs from the fork draw through
/// the fan-out to the join, and `makespan_us` from verify start to the
/// issue join (the commit tail samples no clock, so it is excluded).
/// A streamed window (StagedBatchPipeline::Flush) reports per-stage BUSY
/// sums across its batches — pooled signing time is summed on the
/// workers — while `makespan_us` is the window's wall span; overlap
/// makes makespan < verify+mutate+issue, which is exactly what
/// bench_server_scaling Part G gates.
struct BatchPipelineTimings {
  double verify_us = 0;  ///< stage 1: amortized classification
  double mutate_us = 0;  ///< stage 2: serialized state change
  double issue_us = 0;   ///< stage 3: fork draw + signing (see above)
  double makespan_us = 0;  ///< end-to-end span (see above)
  std::size_t items = 0;     ///< batch size
  std::size_t shed = 0;      ///< items shed kOverloaded at the mutate stage
  std::size_t committed = 0; ///< items that reached issue + commit
};

/// Observability hooks for one flow's pipeline runs: stage spans on the
/// tracer and per-stage latency histograms + shed/item counters on the
/// registry. Either endpoint may be null (off). Span names must be
/// static literals (the tracer stores the pointer); the registry ids are
/// meaningful only when `registry` is non-null — whoever sets the
/// registry registers all five.
struct PipelineObs {
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  const char* span_verify = "pipeline.verify";
  const char* span_mutate = "pipeline.mutate";
  const char* span_issue = "pipeline.issue";
  obs::Registry::Id hist_verify_us = 0;
  obs::Registry::Id hist_mutate_us = 0;
  obs::Registry::Id hist_issue_us = 0;
  obs::Registry::Id ctr_items = 0;
  obs::Registry::Id ctr_shed = 0;
};

/// One flow's callbacks for one batch. Every callback is optional: a
/// null `verify` admits all items, a null `mutate` maps them all to kOk,
/// and a flow with no signing work (coin deposits) simply leaves `issue`
/// empty.
///
/// Index vocabulary: `item` is an index into the caller's batch, `k` is
/// an index into the live set (items that passed verify and whose mutate
/// status proceeds), assigned in ascending item order.
struct BatchPlan {
  std::size_t item_count = 0;

  /// Stage 1 (dispatch thread). Records rejection statuses on the
  /// flow's own result array and returns the surviving item indices,
  /// ascending.
  std::function<std::vector<std::size_t>()> verify;

  /// Stage 2 (flow-chosen serialization point). Returns one status
  /// per eligible item, aligned with the argument. kOk always
  /// proceeds to issue; kOverloaded never does.
  std::function<std::vector<core::Status>(
      const std::vector<std::size_t>& eligible)>
      mutate;

  /// Whether a non-kOk, non-kOverloaded mutate status still goes
  /// through issue + commit (redemption signs a fraud-evidence
  /// transcript for kAlreadySpent). Null: only kOk proceeds.
  std::function<bool(core::Status)> proceed;

  /// Called once with the live-item count before any draw_fork call,
  /// so the flow can size its fork/result arrays.
  std::function<void(std::size_t live_count)> begin_issue;

  /// Fork-drawing hook: dispatch thread, ascending k, before the
  /// fan-out. This ordering is what a fixed seed's bit-identical
  /// inline/pooled guarantee rests on.
  std::function<void(std::size_t k, std::size_t item)> draw_fork;

  /// Stage 3 work for live item k. Runs on the signer pool when there is
  /// one — concurrently — and must write only disjoint per-k state.
  std::function<void(std::size_t k, std::size_t item,
                     core::Status mutate_status)>
      issue;

  /// Commit tail for live item k: dispatch thread, ascending k.
  std::function<void(std::size_t k, std::size_t item,
                     core::Status mutate_status)>
      commit;

  /// Called (dispatch thread, ascending item) for every item whose
  /// mutate status did not proceed — including kOverloaded sheds.
  std::function<void(std::size_t item, core::Status mutate_status)> reject;
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_BATCH_PIPELINE_H_
