#ifndef P2DRM_SERVER_SERVER_RUNTIME_H_
#define P2DRM_SERVER_SERVER_RUNTIME_H_

/// \file server_runtime.h
/// \brief Sharded concurrent runtime for the content provider's stateful
/// redemption path.
///
/// The provider's scalability choke point is the per-redemption state
/// update: a spent-set insert plus a journal append, today serialized on
/// one thread. The runtime decomposes that state into N independent
/// shards (ShardRouter: license-id hash → shard). Each shard owns
///  * one store::SpentSetShard partition (no internal locking — the
///    shard's single worker thread is the lock),
///  * one redemption-journal segment (`<prefix>.shard<k>`),
///  * one bounded task queue with typed backpressure: when a queue is
///    full the submission is shed with core::Status::kOverloaded instead
///    of growing without bound.
///
/// Same-id races are impossible by construction: every spend attempt for
/// a given license id routes to the same shard and serializes on its
/// worker, so exactly one of any number of concurrent double-redemption
/// attempts wins.
///
/// Storage hot path (docs/storage.md): a shard task probes its whole
/// group through SpentSetShard::InsertBatch (flat-table group probes with
/// next-item prefetch) and journals the batch's fresh ids as one
/// group-committed AppendMany block — per-item allocation and the
/// write()-per-record syscall are both gone from the spend stage.
///
/// Thread-safety contract: Submit/TrySubmit/SpendBatch/SpendOne may be
/// called from any number of threads concurrently. The aggregate
/// accessors (SpentSize, Processed, …) quiesce the queues first and are
/// accurate when no other thread is submitting concurrently.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/errors.h"
#include "obs/registry.h"
#include "rel/ids.h"
#include "server/shard_router.h"
#include "store/append_log.h"
#include "store/spent_set.h"

namespace p2drm {
namespace server {

/// Simple counting latch (C++17 stand-in for std::latch).
class Latch {
 public:
  explicit Latch(std::size_t count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(m_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::size_t count_;
};

/// Runtime configuration.
struct ServerRuntimeConfig {
  std::size_t shard_count = 4;
  /// Per-shard queue bound, counted in items (task weight). A submission
  /// that would push a non-empty queue past this bound is shed with
  /// kOverloaded. An oversize submission to an empty queue is accepted so
  /// a single batch larger than the bound cannot starve forever.
  std::size_t queue_capacity = 4096;
  store::SpentSetBackend spent_backend = store::SpentSetBackend::kFlat;
  /// When non-empty, shard k journals fresh spends to
  /// `<prefix>.shard<k>`, and construction replays every existing
  /// segment — plus a legacy unsharded journal at `<prefix>` itself —
  /// routing each id to its current home shard (so the shard count may
  /// change between runs).
  std::string journal_path_prefix;
  /// Group commit (docs/storage.md): a shard task's fresh spends are
  /// gathered into the shard's retained scratch buffer and journaled as
  /// ONE CRC'd block via AppendLog::AppendMany — one write() per shard
  /// group instead of one per record. Off = the legacy per-record Append
  /// path (kept as the bench_server_scaling mutate-stage baseline).
  /// Either way a spend is durable before SpendBatch returns it as kOk.
  bool group_commit_journal = true;
};

/// What a shard task sees: the shard's own state, touched only from the
/// shard's worker thread.
struct ShardContext {
  explicit ShardContext(store::SpentSetBackend backend) : spent(backend) {}

  std::size_t index = 0;
  store::SpentSetShard spent;
  store::AppendLog* journal = nullptr;  ///< null when journaling is off
  /// Per-shard simulated-time clock (microseconds) for benches that model
  /// service time the way the transport's LatencyModel models wire time.
  std::uint64_t sim_clock_us = 0;
  std::uint64_t processed = 0;  ///< items completed on this shard
  /// Retained gather arena for group-committed journal blocks: fresh ids
  /// are packed here back to back before one AppendMany call. Capacity
  /// sticks across batches, so the steady-state spend path allocates
  /// nothing.
  std::vector<std::uint8_t> journal_scratch;
  /// Last MemoryBytes() value pushed to the `<prefix>spent.bytes` gauge;
  /// workers publish deltas so the gauge tracks the aggregate footprint.
  std::size_t spent_bytes_reported = 0;
};

/// Fixed pool of shard workers behind bounded queues.
class ServerRuntime {
 public:
  /// A task runs on its shard's worker thread with exclusive access to
  /// the shard context. Tasks must not call back into the runtime.
  using Task = std::function<void(ShardContext&)>;

  explicit ServerRuntime(const ServerRuntimeConfig& config);
  ~ServerRuntime();

  ServerRuntime(const ServerRuntime&) = delete;
  ServerRuntime& operator=(const ServerRuntime&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t ShardFor(const rel::LicenseId& id) const {
    return router_.ShardFor(id);
  }

  /// Enqueues \p task on \p shard; \p weight is the item count it
  /// represents (for queue accounting). Returns false — shedding the
  /// task — when the queue is over capacity. \p done, when set, is
  /// counted down after the task has run AND the shard has released its
  /// weight: a caller that waits on it and then submits again never
  /// meets its own finished task in the queue bound.
  bool TrySubmit(std::size_t shard, Task task, std::size_t weight = 1,
                 Latch* done = nullptr);

  /// Blocking submit: waits for queue room instead of shedding.
  void Submit(std::size_t shard, Task task, std::size_t weight = 1,
              Latch* done = nullptr);

  /// Waits until every shard queue is empty and every worker is idle.
  void Drain() const;

  /// Routes \p ids to their home shards and marks them spent; fresh
  /// inserts are journaled. On return, out[i] is kOk (freshly spent),
  /// kAlreadySpent (double redemption), or — only when \p shed_on_full —
  /// kOverloaded (queue full; the id was NOT marked). Blocks until every
  /// accepted id has been processed. Duplicate ids within one call
  /// resolve in index order: the first occurrence wins.
  void SpendBatch(const std::vector<rel::LicenseId>& ids,
                  std::vector<core::Status>* out, bool shed_on_full = true);

  /// Single-id spend through the same serialization point; never sheds.
  core::Status SpendOne(const rel::LicenseId& id);

  // -- journal export/import (cluster migration hooks) -------------------

  /// What one ImportSpent call did.
  struct ImportStats {
    std::uint64_t fresh = 0;       ///< ids newly inserted (and journaled)
    std::uint64_t duplicates = 0;  ///< ids this runtime already had
  };

  /// Bulk-inserts \p ids into their home shards' spent sets — the import
  /// side of journal-based migration (a dead replica's journal replayed
  /// onto this one, or a joining replica pulling its ranges). Idempotent:
  /// ids already present are counted as duplicates and neither re-inserted
  /// nor re-journaled, so replaying a segment twice cannot distort the
  /// spent set, its MemoryBytes, or the journal. Imports do not count as
  /// processed traffic. Blocking, never sheds.
  ImportStats ImportSpent(const std::vector<rel::LicenseId>& ids);

  /// What a full journal scan under one prefix saw.
  struct JournalScanStats {
    std::size_t segments = 0;      ///< segment files found (legacy included)
    std::uint64_t records = 0;     ///< intact license-id records delivered
    std::size_t torn_tails = 0;    ///< segments ending in a skipped torn tail
  };

  /// The export side of migration: streams every intact license-id record
  /// under \p prefix — the legacy unsharded journal plus every contiguous
  /// `<prefix>.shard<k>` segment — to \p fn (which may be null to count
  /// only). Static: works on the journals of a runtime that no longer
  /// exists, which is exactly the failover case. Torn tails (a crash
  /// mid-append) are skipped per segment, not fatal.
  static JournalScanStats ForEachJournalRecord(
      const std::string& prefix,
      const std::function<void(const rel::LicenseId&)>& fn);

  // -- aggregate introspection (quiesces the queues first) ---------------

  std::size_t SpentSize() const;
  std::size_t SpentMemoryBytes() const;
  std::uint64_t Processed() const;
  std::uint64_t Overloads() const;
  std::size_t ShardSpentSize(std::size_t shard) const;
  std::uint64_t ShardProcessed(std::size_t shard) const;
  std::uint64_t ShardSimClockUs(std::size_t shard) const;
  std::size_t QueueHighWater(std::size_t shard) const;

  /// Journal segment path for \p shard under \p prefix.
  static std::string SegmentPath(const std::string& prefix, std::size_t shard);

  /// Wires queue accounting into \p registry (null = off): a
  /// `<prefix>queue_depth` gauge (+weight on accept, -weight on
  /// completion), a `<prefix>sheds` counter on every TrySubmit
  /// rejection, and a `<prefix>spent.bytes` gauge tracking the summed
  /// SpentSetShard::MemoryBytes across shards (each worker publishes the
  /// delta against its last report after a mutating task, so the gauge is
  /// exact at quiesce — RT-3 resident-footprint accounting in scenario
  /// reports). Call before traffic starts; the ids are read by the
  /// submit paths and workers without synchronization after that.
  void set_observability(obs::Registry* registry, const std::string& prefix);

 private:
  struct Shard {
    explicit Shard(store::SpentSetBackend backend) : ctx(backend) {}

    mutable std::mutex m;
    std::condition_variable work_cv;        // queue became non-empty / stop
    std::condition_variable space_cv;       // queue has room again
    mutable std::condition_variable idle_cv;  // queue empty and worker idle
    struct Queued {
      Task task;
      std::size_t weight = 0;
      Latch* done = nullptr;  // counted down after the weight is released
    };
    std::deque<Queued> queue;
    std::size_t pending_items = 0;  // queued + in-flight weight
    bool busy = false;
    std::size_t high_water = 0;
    std::uint64_t overloads = 0;
    bool stop = false;  // guarded by m
    ShardContext ctx;
    std::unique_ptr<store::AppendLog> journal;
    std::thread worker;
  };

  void WorkerLoop(Shard* shard);
  void ReplayJournals();
  /// Journals the ids with fresh[i] != 0 from a shard task: one
  /// group-committed AppendMany block (default) or per-record Appends
  /// (legacy baseline). Runs on the shard's worker thread.
  void JournalFreshIds(ShardContext& ctx,
                       const std::vector<rel::LicenseId>& ids,
                       const std::vector<std::uint8_t>& fresh) const;
  /// Publishes the shard's MemoryBytes delta to the spent.bytes gauge.
  void UpdateSpentBytesGauge(ShardContext& ctx) const;
  /// Waits for \p shard to go idle and returns with its mutex held.
  std::unique_lock<std::mutex> QuiesceShard(std::size_t shard) const;

  ServerRuntimeConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Queue observability (null = off; see set_observability).
  obs::Registry* obs_registry_ = nullptr;
  obs::Registry::Id obs_queue_depth_ = 0;
  obs::Registry::Id obs_sheds_ = 0;
  obs::Registry::Id obs_spent_bytes_ = 0;
};

}  // namespace server
}  // namespace p2drm

#endif  // P2DRM_SERVER_SERVER_RUNTIME_H_
