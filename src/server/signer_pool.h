#ifndef P2DRM_SERVER_SIGNER_POOL_H_
#define P2DRM_SERVER_SIGNER_POOL_H_

/// \file signer_pool.h
/// \brief Dedicated work-stealing thread pool for the issue stage.
///
/// Issuance is per-item RSA private-key work with no shard affinity: it
/// touches no shard-owned state, so it does not run on the spend shards
/// (that would couple signing latency to spend-queue depth and size the
/// signing capacity to the shard count). SignerPool is the one issue
/// executor: a small pool sized independently of the shards, one
/// bounded-latency deque per worker, and steal-from-back balancing so a
/// worker that drains its own slice finishes someone else's instead of
/// idling. A provider without a pool signs inline on its dispatch
/// thread.
///
/// Scheduling contract:
///  * `SubmitBatch(count, work)` deals item k to deque k mod W and
///    returns a Ticket; `Ticket::Wait()` blocks until every item of that
///    batch has executed. Batches from different callers interleave
///    freely — fairness across batches is by deal order, not FIFO.
///  * A worker pops its own deque from the FRONT (oldest first, keeps
///    per-batch index order roughly ascending per worker) and steals
///    from the BACK of a victim's deque, scanning victims starting at
///    its right-hand neighbour. Back-stealing takes the work the owner
///    would reach last, which minimizes owner/thief contention.
///  * Work items must be thread-safe and write only disjoint per-k
///    state — the same contract as BatchPlan::issue. The pool
///    guarantees nothing about WHICH worker runs an item, so issuance
///    determinism must come from dispatch-side DRBG forks, never from
///    worker identity.
///  * Shutdown drains: the destructor wakes every worker and each one
///    exits only once every queued item (its own or stolen) has run, so
///    a Ticket outstanding at destruction time still completes.
///
/// Observability (all optional, off when no registry is wired):
/// `<prefix>queue_depth` gauge counts queued-not-yet-started items and
/// is exact at quiesce; `<prefix>steals` counts successful steals.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace p2drm {
namespace server {

/// Per-worker context handed to every job the worker runs. The counters
/// are relaxed atomics so harnesses may read them while other batches
/// are still in flight; for exact values quiesce first (Ticket::Wait on
/// everything outstanding, or destruction).
struct SignerContext {
  std::size_t index = 0;  ///< worker index in [0, worker_count)

  /// Accrues measured signing time onto this worker's simulated clock,
  /// so benches can report a hardware-independent issue makespan.
  void AccrueSimClockUs(std::uint64_t us) {
    sim_clock_us.fetch_add(us, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> sim_clock_us{0};  ///< accrued signing time
  std::atomic<std::uint64_t> executed{0};      ///< jobs run by this worker
};

/// Work-stealing signer pool. All public methods are safe to call from
/// any thread except set_observability, which must precede the first
/// SubmitBatch.
class SignerPool {
 public:
  /// One unit of issue work: item k of its batch, run on some worker.
  using Job = std::function<void(SignerContext& ctx, std::size_t k)>;

 private:
  struct Batch;  // completion state shared by a ticket and its items

 public:
  /// Completion handle for one SubmitBatch call. Copyable; all copies
  /// refer to the same batch.
  class Ticket {
   public:
    Ticket() = default;
    /// Blocks until every item of the batch has executed (returns at
    /// once for an empty ticket). Establishes
    /// happens-before with each item's effects, so per-k results are
    /// safe to read afterwards without further synchronization.
    void Wait();

   private:
    friend class SignerPool;
    explicit Ticket(std::shared_ptr<Batch> batch) : batch_(std::move(batch)) {}
    std::shared_ptr<Batch> batch_;
  };

  /// Spawns \p worker_count workers (clamped to at least 1).
  explicit SignerPool(std::size_t worker_count);
  ~SignerPool();

  SignerPool(const SignerPool&) = delete;
  SignerPool& operator=(const SignerPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Deals k = 0..count-1 to the per-worker deques (k mod W) and wakes
  /// the pool. Returns immediately; the work runs concurrently with the
  /// caller. The batch's Job is shared by all its items.
  Ticket SubmitBatch(std::size_t count, Job work);

  /// Total successful steals across all workers (relaxed; exact at
  /// quiesce).
  std::uint64_t Steals() const;

  /// Worker i's accrued simulated signing clock (relaxed; exact after
  /// Ticket::Wait on everything outstanding).
  std::uint64_t WorkerSimClockUs(std::size_t i) const {
    return workers_[i]->ctx.sim_clock_us.load(std::memory_order_relaxed);
  }

  /// max over workers of WorkerSimClockUs — the pool's issue makespan on
  /// the simulated timebase.
  std::uint64_t MaxWorkerSimClockUs() const;

  /// Wires `<prefix>queue_depth` (gauge) and `<prefix>steals` (counter).
  /// Call before the first SubmitBatch; pass nullptr to detach.
  void set_observability(obs::Registry* registry, const std::string& prefix);

 private:
  struct Item {
    std::shared_ptr<Batch> batch;
    std::size_t k = 0;
  };

  struct Worker {
    std::mutex m;                 ///< guards dq only
    std::deque<Item> dq;
    std::atomic<std::uint64_t> steals{0};
    SignerContext ctx;
    std::thread thread;
  };

  void WorkerLoop(std::size_t index);
  bool TryRunOne(std::size_t self_index);

  std::vector<std::unique_ptr<Worker>> workers_;

  // Sleep/wake protocol: pending_ counts dealt-but-not-yet-popped items
  // and is incremented BEFORE the items are dealt, so a worker that
  // wakes early at worst spins through one empty scan while the dealer
  // finishes. Workers block on sleep_cv_ when pending_ == 0 and exit
  // only when stop_ && pending_ == 0 — i.e. after draining everything.
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};

  obs::Registry* registry_ = nullptr;
  obs::Registry::Id gauge_queue_ = 0;
  obs::Registry::Id ctr_steals_ = 0;
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_SIGNER_POOL_H_
