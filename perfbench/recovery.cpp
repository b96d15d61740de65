// recovery: the spent-license tier on its own, with no crypto.
//
// Set-up starts a journaled cluster::ProviderCluster (2 replicas x 1
// shard) and spends 2^20 historic ids into it from a fixed seed. The pass
// ingests 2^24 random license ids through SpendBatchAt in 64-id groups, is
// cold-restarted from its journals (fresh_start = false), audits a fixed
// 2^22 sample (every id must come back kAlreadySpent), then loses one
// replica and replays its journal onto the survivor (CompleteFailover).
// The tables total about 0.5 GiB, beyond the 300 MiB L3, so store and
// cluster do nearly all the work, and the same table and journal are
// used three ways: writes, reads and bulk import.

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/provider_cluster.h"
#include "core/metrics.h"
#include "server/server_runtime.h"
#include "workloads.h"

namespace perfbench {

using namespace p2drm;  // NOLINT

namespace {

constexpr std::size_t kReplicas = 2;
constexpr std::size_t kShardsPerReplica = 1;
constexpr std::size_t kGroup = 64;
/// Ids ingested per requested run time: 2^24 at --seconds 20.
constexpr std::uint64_t kIdsPer20Seconds = std::uint64_t{1} << 24;
/// Historic ids spent into the tier at set-up, from a fixed key (the
/// workload's set-up seed), so set-up is the same work on every run.
constexpr std::uint64_t kHistoryIds = std::uint64_t{1} << 20;
constexpr std::uint64_t kHistoryKey = 0x7065726662656e63ull;
/// Every kAuditStride-th ingested id is audited after the restart.
constexpr std::uint64_t kAuditStride = 4;
/// Every kRecheckStride-th id is re-spent after the failover.
constexpr std::uint64_t kRecheckStride = 16;
constexpr std::uint32_t kCrashedReplica = 1;
/// Threads move to the next placement every kMoveEvery ids of the timed
/// ingest and audit, between calls.
constexpr std::uint64_t kMoveEvery = std::uint64_t{1} << 18;

/// The i-th license id of the seed's input stream.
rel::LicenseId IdAt(std::uint64_t seed, std::uint64_t i) {
  return SyntheticId(seed ^ 0x7265636f76657279ull, i);
}

/// Groups ids by owning replica and sends each full group of 64 through
/// SpendBatchAt, timing every call and checking every outcome.
class GroupSender {
 public:
  /// \p move_every: ids between placement moves (0 = never).
  GroupSender(cluster::ProviderCluster* cluster, const char* span,
              core::Status expected, obs::Tracer* tracer, std::uint64_t move_every)
      : cluster_(cluster), span_(span), expected_(expected), tracer_(tracer),
        move_every_(move_every) {}

  void Add(const rel::LicenseId& id) {
    if (move_every_ != 0 && ++added_ % move_every_ == 0) RotatePlacement();
    std::vector<rel::LicenseId>& group = pending_[cluster_->OwnerOf(id)];
    group.push_back(id);
    if (group.size() == kGroup) Send(cluster_->OwnerOf(id));
  }

  /// Sends every partial group.
  void Flush() {
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      if (!pending_[r].empty()) Send(r);
    }
  }

  /// Adds the sent ids to \p result's op counts.
  void CountOps(Result* result) const {
    result->attempted += sent_;
    result->failed += wrong_;
  }

  const Samples& latency_us() const { return latency_us_; }
  std::uint64_t wrong() const { return wrong_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t sent_to(std::uint32_t r) const { return sent_to_[r]; }
  std::size_t largest_group() const { return largest_group_; }

 private:
  void Send(std::uint32_t r) {
    std::vector<rel::LicenseId>& group = pending_[r];
    const auto t0 = SteadyClock::now();
    {
      OpSpan span(tracer_, span_, ++calls_);
      cluster_->SpendBatchAt(r, group, &out_);
    }
    latency_us_.Add(SecondsSince(t0) * 1e6);
    for (const cluster::SpendOutcome& o : out_) {
      wrong_ += o.status != expected_ ? 1 : 0;
    }
    sent_ += group.size();
    sent_to_[r] += group.size();
    largest_group_ = std::max(largest_group_, group.size());
    group.clear();
  }

  cluster::ProviderCluster* cluster_;
  const char* span_;
  core::Status expected_;
  obs::Tracer* tracer_;
  std::uint64_t move_every_;
  std::array<std::vector<rel::LicenseId>, kReplicas> pending_;
  std::vector<cluster::SpendOutcome> out_;
  Samples latency_us_;
  std::uint64_t calls_ = 0;
  std::uint64_t added_ = 0;
  std::uint64_t wrong_ = 0;
  std::uint64_t sent_ = 0;
  std::array<std::uint64_t, kReplicas> sent_to_{};
  std::size_t largest_group_ = 0;
};

class Recovery : public Workload {
 public:
  explicit Recovery(const Options& options)
      : options_(options),
        ids_(kIdsPer20Seconds * static_cast<std::uint64_t>(options.seconds) / 20 /
             kGroup * kGroup) {}

  // The tier an operator restarts: a started cluster holding a fixed
  // history of spends. Set-up runs before the pass moves its threads
  // apart, so the replicas share the client's CPU here.
  void SetUp(obs::Tracer* tracer, obs::Registry* registry) override {
    tracer_ = tracer;
    registry_ = registry;
    cluster_ = std::make_unique<cluster::ProviderCluster>(Config(/*fresh_start=*/true));
    GroupSender history(cluster_.get(), "cluster.history", core::Status::kOk, nullptr, 0);
    for (std::uint64_t i = 0; i < kHistoryIds; ++i) history.Add(SyntheticId(kHistoryKey, i));
    history.Flush();
    if (history.wrong() != 0 || cluster_->TotalSpentSize() != kHistoryIds) {
      throw std::runtime_error("set-up: history spends were not all fresh");
    }
    history_to_crashed_ = history.sent_to(kCrashedReplica);
  }

  // Ingest, cold restart, audit, failover.
  Pass Run(LayerMetrics* layers, Result* result) override {
    Pass pass;
    pass.ops = static_cast<double>(ids_);
    const std::uint64_t total = kHistoryIds + ids_;
    const core::OpCounters ops_before = core::AggregateOps();

    // Ingest: every id is fresh.
    GroupSender ingest(cluster_.get(), "cluster.ingest", core::Status::kOk, tracer_,
                       kMoveEvery);
    double placement_s = PlacementSeconds();
    auto t0 = SteadyClock::now();
    for (std::uint64_t i = 0; i < ids_; ++i) ingest.Add(IdAt(options_.seed, i));
    ingest.Flush();
    pass.loop_s = SecondsSince(t0) - (PlacementSeconds() - placement_s);
    ingest_us_ = ingest.latency_us();
    ingest.CountOps(result);
    result->Check(ingest.wrong() == 0, "recovery: every ingested id is fresh");
    result->Check(cluster_->TotalSpentSize() == total,
                  "recovery: the tier holds the history and every ingested id");
    journal_bytes_ = DirectoryBytes(options_.work_dir);
    if (layers != nullptr) {
      const auto agg = registry_->Aggregate();
      std::int64_t bytes = 0;
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        bytes += GaugeValue(agg, "cluster.r" + std::to_string(r) + ".spent.bytes");
      }
      layers->Set("store.spent_bytes_per_id",
                  Ratio(static_cast<double>(bytes), static_cast<double>(total)));
      // Read + CRC of every journal record, without the inserts.
      t0 = SteadyClock::now();
      std::uint64_t records = 0;
      {
        OpSpan span(tracer_, "store.journal_scan", 0);
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
          records += server::ServerRuntime::ForEachJournalRecord(
                         cluster::ProviderCluster::ReplicaJournalPrefix(
                             JournalPrefix(), r),
                         nullptr)
                         .records;
        }
      }
      layers->Set("store.journal_scan_ids_per_s",
                  Ratio(static_cast<double>(records), SecondsSince(t0)));
      result->Check(records == total, "recovery: the journals hold every id");
    }

    // Cold restart: the whole tier dies and comes back from its journals.
    cluster_.reset();
    t0 = SteadyClock::now();
    {
      OpSpan span(tracer_, "cluster.restart", 0);
      cluster_ = std::make_unique<cluster::ProviderCluster>(Config(/*fresh_start=*/false));
    }
    recovery_s_ = SecondsSince(t0);
    RotatePlacement();  // the restarted replicas started on the client's CPU
    result->Check(cluster_->TotalSpentSize() == total,
                  "recovery: TotalSpentSize equals the ids ingested after restart");

    // Audit: a fixed sample of the ingested ids must all be spent.
    GroupSender audit(cluster_.get(), "cluster.audit", core::Status::kAlreadySpent,
                      tracer_, kMoveEvery);
    placement_s = PlacementSeconds();
    t0 = SteadyClock::now();
    for (std::uint64_t i = 0; i < ids_; i += kAuditStride) {
      audit.Add(IdAt(options_.seed, i));
    }
    audit.Flush();
    audit_s_ = SecondsSince(t0) - (PlacementSeconds() - placement_s);
    audit.CountOps(result);
    result->Check(audit.wrong() == 0, "recovery: every audited id is kAlreadySpent");

    // Failover: one replica dies; its journal is replayed onto the survivor.
    cluster_->Crash(kCrashedReplica);
    t0 = SteadyClock::now();
    cluster::FailoverStats failover;
    {
      OpSpan span(tracer_, "cluster.failover", 0);
      failover = cluster_->CompleteFailover();
    }
    failover_s_ = SecondsSince(t0);
    const std::uint64_t crashed_ids =
        history_to_crashed_ + ingest.sent_to(kCrashedReplica);
    result->Check(failover.records == crashed_ids && failover.imported_fresh == crashed_ids,
                  "recovery: failover replays exactly the crashed replica's ids");
    GroupSender recheck(cluster_.get(), "cluster.recheck", core::Status::kAlreadySpent,
                        tracer_, 0);
    for (std::uint64_t i = 0; i < ids_; i += kRecheckStride) {
      recheck.Add(IdAt(options_.seed, i));
    }
    recheck.Flush();
    recheck.CountOps(result);
    result->Check(recheck.wrong() == 0, "recovery: zero double spends after failover");
    result->Check(cluster_->TotalSpentSize() == total,
                  "recovery: the survivor holds every id after failover");

    queue_high_water_ = std::max(ingest.largest_group(), audit.largest_group());
    Fingerprint* fp = &pass.fingerprint;
    fp->push_back({"recovery.history_ids", kHistoryIds});
    fp->push_back({"recovery.ids", ids_});
    fp->push_back({"recovery.ids_r0", ingest.sent_to(0)});
    fp->push_back({"recovery.ids_r1", ingest.sent_to(1)});
    fp->push_back({"recovery.audited", audit.sent()});
    fp->push_back({"recovery.rechecked", recheck.sent()});
    fp->push_back({"store.journal_bytes", journal_bytes_});
    fp->push_back({"failover.records", failover.records});
    fp->push_back({"failover.imported_fresh", failover.imported_fresh});
    fp->push_back({"store.spent_ids", cluster_->TotalSpentSize()});
    cluster_.reset();
    const core::OpCounters ops = core::AggregateOps() - ops_before;
    AddOpCounts(ops, fp);
    result->Check(ops.Total() == 0, "recovery: the spend tier runs no crypto");
    return pass;
  }

  void Report(Result* result) override {
    result->EndToEnd("redeem_mean_ms", ingest_us_.Mean() / 1e3, "ms");
    result->EndToEnd("redeem_p90_ms", ingest_us_.Percentile(90) / 1e3, "ms");
    result->Report("redeem_p50_ms", ingest_us_.Percentile(50) / 1e3, "ms");
    result->Report("recovery_s", recovery_s_, "s");
    result->Report("audit_ops_per_s",
                   Ratio(static_cast<double>(ids_ / kAuditStride), audit_s_), "1/s");
    result->Report("disk_bytes_per_id",
                   Ratio(static_cast<double>(journal_bytes_),
                         static_cast<double>(kHistoryIds + ids_)),
                   "B");
    result->Report("failover_s", failover_s_, "s");
    result->Report("ingest_calls", static_cast<double>(ingest_us_.Count()), "count");
  }

  void Layers(const Ledger& ledger, const Pass& /*pass*/, LayerMetrics* layers) override {
    const double spend_calls =
        static_cast<double>(ledger.Count("cluster.ingest") + ledger.Count("cluster.audit"));
    layers->Set("cluster.spend_call_us",
                Ratio(ledger.TotalUs("cluster.ingest") + ledger.TotalUs("cluster.audit"),
                      spend_calls));
    layers->Set("cluster.failover_s", failover_s_);
    layers->Set("cluster.queue_high_water", static_cast<double>(queue_high_water_));
  }

 private:
  std::string JournalPrefix() const { return options_.work_dir + "/spend"; }

  cluster::ClusterConfig Config(bool fresh_start) const {
    cluster::ClusterConfig cfg;
    cfg.replica_count = kReplicas;
    cfg.shards_per_replica = kShardsPerReplica;
    cfg.journal_prefix = JournalPrefix();
    cfg.fresh_start = fresh_start;
    cfg.obs.registry = registry_;  // tracer stays null: only benchmark spans
    return cfg;
  }

  const Options options_;
  const std::uint64_t ids_;  ///< ids ingested in one pass
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<cluster::ProviderCluster> cluster_;
  std::uint64_t history_to_crashed_ = 0;
  Samples ingest_us_;
  std::uint64_t journal_bytes_ = 0;
  double recovery_s_ = 0;
  double audit_s_ = 0;
  double failover_s_ = 0;
  std::size_t queue_high_water_ = 0;
};

}  // namespace

void RunRecovery(const Options& options, Result* result) {
  RunWorkload(options, [&] { return std::make_unique<Recovery>(options); }, result);
}

}  // namespace perfbench
