#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>

#include "cluster/provider_cluster.h"
#include "crypto/drbg.h"
#include "sim/zipf.h"

namespace p2drm {
namespace sim {

const char* FlowName(Flow flow) {
  switch (flow) {
    case Flow::kRedeem: return "redeem";
    case Flow::kPurchase: return "purchase";
    case Flow::kExchange: return "exchange";
    case Flow::kDeposit: return "deposit";
  }
  return "unknown";
}

std::uint64_t ScenarioResult::TotalIssued() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows) n += f.issued;
  return n;
}
std::uint64_t ScenarioResult::TotalCompleted() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows) n += f.completed;
  return n;
}
std::uint64_t ScenarioResult::TotalSheds() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows) n += f.sheds;
  return n;
}
std::uint64_t ScenarioResult::TotalExhausted() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows) n += f.exhausted;
  return n;
}
std::uint64_t ScenarioResult::TotalRedirectedTerminal() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows) n += f.redirected;
  return n;
}

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Binds a tracer to the scenario's virtual clock for the duration of a
/// Run(). RAII on purpose: the clock is a stack member of the engine, so
/// the time source MUST be detached before the engine dies — otherwise a
/// later emission would call through a dangling clock pointer.
class TracerClockScope {
 public:
  TracerClockScope(obs::Tracer* tracer, VirtualClock* clock)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    tracer_->set_time_source([clock] { return clock->NowUs(); });
    tracer_->SetThreadName("scenario");
  }
  ~TracerClockScope() {
    if (tracer_ != nullptr) tracer_->set_time_source(nullptr);
  }

  TracerClockScope(const TracerClockScope&) = delete;
  TracerClockScope& operator=(const TracerClockScope&) = delete;

 private:
  obs::Tracer* tracer_;
};

/// One in-flight client batch (shrinks to the shed indices on retries).
struct Batch {
  std::size_t user = 0;
  Flow flow = Flow::kRedeem;
  std::uint64_t first_send_us = 0;
  std::size_t attempts = 0;               ///< wire sends so far
  std::vector<std::uint64_t> keys;        ///< routing keys still unresolved
};

/// Scenario state and samplers shared by the single-provider model
/// engine and the cluster engine: the virtual timebase, the seeded rng,
/// the workload shape (flow mix, Zipf, think times, bursts) and the
/// modeled shard resource. Both engines draw from the SAME primitives so
/// their workloads are comparable knob-for-knob.
class EngineBase {
 protected:
  explicit EngineBase(const ScenarioConfig& cfg)
      : cfg_(cfg),
        clock_(/*start_epoch_s=*/0),
        loop_(&clock_),
        rng_(cfg.name + ":" + std::to_string(cfg.seed)),
        zipf_(std::max<std::size_t>(cfg.catalog_size, 1), cfg.zipf_alpha),
        hot_threshold_(std::max<std::size_t>(cfg.catalog_size / 100, 1)) {
    result_.name = cfg_.name;
    result_.flows = {};
  }

  struct ShardState {
    std::uint64_t busy_until_us = 0;
    /// Completion instants of queued + in-flight items; its size is the
    /// backlog the bounded-queue check runs against. Arrivals reach the
    /// shards in nondecreasing dispatcher order, so popping the front
    /// lazily is exact.
    std::deque<std::uint64_t> completions;
  };

  /// Issue-completion instant on the earliest-available signer of
  /// \p signers (lowest index breaks ties), starting no earlier than
  /// \p ready_us. Mirrors server::SignerPool's work-stealing property:
  /// an idle signer immediately takes the next pending item, so the pool
  /// behaves as one k-server service center and which worker signs is
  /// immaterial to the finish time.
  static std::uint64_t IssueOnPool(std::vector<std::uint64_t>* signers,
                                   std::uint64_t ready_us,
                                   std::uint64_t issue_us) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < signers->size(); ++i) {
      if ((*signers)[i] < (*signers)[best]) best = i;
    }
    std::uint64_t start = std::max((*signers)[best], ready_us);
    std::uint64_t done = start + issue_us;
    (*signers)[best] = done;
    return done;
  }

  /// Schedules every user's first batch across the ramp window.
  void ScheduleUsers() {
    for (std::size_t u = 0; u < cfg_.num_users; ++u) {
      std::uint64_t start =
          cfg_.ramp_us == 0
              ? 0
              : static_cast<std::uint64_t>(
                    (static_cast<unsigned __int128>(cfg_.ramp_us) * u) /
                    cfg_.num_users);
      loop_.ScheduleAt(start, [this, u] { FirstBatch(u); });
    }
  }

  /// The engine's per-user entry point (closed-loop batch issue).
  virtual void FirstBatch(std::size_t user) = 0;
  virtual ~EngineBase() = default;

  double U01() { return rng_.NextUnitDouble(); }

  double ThinkScaleAt(std::uint64_t t_us) const {
    double scale = 1.0;
    for (const BurstWindow& w : cfg_.bursts) {
      if (t_us >= w.start_us && t_us < w.end_us) scale *= w.think_scale;
    }
    return scale;
  }

  std::uint64_t SampleThinkUs() {
    // Exponential inter-batch think time, scaled by any active burst.
    double u = U01();
    double t = -static_cast<double>(cfg_.mean_think_us) * std::log1p(-u);
    t *= ThinkScaleAt(clock_.NowUs());
    return t < 1.0 ? 1 : static_cast<std::uint64_t>(t);
  }

  Flow SampleFlow() {
    double total = 0;
    for (double w : cfg_.mix) total += w;
    if (total <= 0) return Flow::kRedeem;
    double r = U01() * total;
    Flow last_weighted = Flow::kRedeem;
    for (std::size_t f = 0; f < kFlowCount; ++f) {
      if (cfg_.mix[f] <= 0) continue;  // zero weight can never be drawn
      last_weighted = static_cast<Flow>(f);
      r -= cfg_.mix[f];
      if (r < 0) return last_weighted;
    }
    // Floating-point rounding can leave r == 0 after the last subtract;
    // that draw belongs to the last flow with actual weight.
    return last_weighted;
  }

  FlowStats& StatsFor(Flow f) {
    return result_.flows[static_cast<std::size_t>(f)];
  }
  const FlowCost& CostFor(Flow f) const {
    return cfg_.cost[static_cast<std::size_t>(f)];
  }

  ScenarioConfig cfg_;
  VirtualClock clock_;
  EventLoop loop_;
  crypto::HmacDrbg rng_;
  ZipfGenerator zipf_;
  std::size_t hot_threshold_;
  std::uint64_t issued_items_ = 0;
  std::uint64_t route_counter_ = 0;
  ScenarioResult result_;
};

/// The single-provider model engine: one driving thread, one event loop,
/// no wall clock anywhere.
class Engine : public EngineBase {
 public:
  explicit Engine(const ScenarioConfig& cfg)
      : EngineBase(cfg),
        shards_(std::max<std::size_t>(cfg.shard_count, 1)),
        signers_(cfg.signer_pool_size, 0) {}

  ScenarioResult Run() {
    TracerClockScope trace_clock(cfg_.obs.tracer, &clock_);
    ScheduleUsers();
    loop_.RunUntilIdle();
    result_.virtual_duration_us = clock_.NowUs();
    result_.events_executed = loop_.ExecutedCount();
    return std::move(result_);
  }

 private:
  void FirstBatch(std::size_t user) override { NextBatch(user); }

  /// Client builds and sends a fresh batch (or retires when the
  /// scenario's request budget is spent).
  void NextBatch(std::size_t user) {
    if (issued_items_ >= cfg_.total_requests) return;  // user retires
    auto batch = std::make_shared<Batch>();
    batch->user = user;
    batch->flow = SampleFlow();
    batch->first_send_us = clock_.NowUs();
    // Clamped to >= 1: a zero-item batch would never move
    // issued_items_ toward the stop condition and the closed loop
    // would reschedule itself forever.
    std::size_t n = std::max<std::size_t>(cfg_.batch_size, 1);
    batch->keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t rank = zipf_.Next(&rng_);
      if (rank < hot_threshold_) ++result_.zipf_top1pct_hits;
      // Purchases serialize on per-content provider state (royalty and
      // usage counters — core/usage_stats in the real stack), so their
      // home shard is the CONTENT's home shard and popularity skew
      // concentrates load: zipf_alpha is a live contention knob.
      // Redeem/exchange/deposit route by unique license/coin ids, which
      // hash uniformly — faithful to ShardRouter over fresh ids.
      std::uint64_t key = batch->flow == Flow::kPurchase
                              ? SplitMix64(0xC0117E17ull ^ rank)
                              : SplitMix64(route_counter_++);
      batch->keys.push_back(key);
    }
    issued_items_ += n;
    StatsFor(batch->flow).issued += n;
    Send(std::move(batch));
  }

  /// One metered round trip: request wire time, then the server model.
  void Send(std::shared_ptr<Batch> batch) {
    batch->attempts += 1;
    ++result_.batches_sent;
    std::size_t req_bytes = batch->keys.size() * cfg_.request_bytes_per_item;
    result_.wire_messages += 1;
    result_.wire_bytes += req_bytes;
    loop_.ScheduleAfter(cfg_.wire.CostUs(req_bytes),
                        [this, batch = std::move(batch)]() { Serve(batch); });
  }

  /// The provider model: serialized amortized verify on the dispatcher,
  /// then per-item mutate+issue on each key's home shard behind the
  /// bounded backlog. Mirrors server::StagedBatchPipeline's stage
  /// contract — kOverloaded originates at the shard admission point
  /// only, before any modeled state change.
  void Serve(const std::shared_ptr<Batch>& batch) {
    const FlowCost& cost = CostFor(batch->flow);
    const std::uint64_t arrival = clock_.NowUs();
    std::uint64_t verify_start = std::max(dispatcher_busy_until_, arrival);
    std::uint64_t verify_done =
        verify_start + cost.verify_us * batch->keys.size();
    dispatcher_busy_until_ = verify_done;

    std::vector<std::uint64_t> shed_keys;
    std::uint64_t last_done = verify_done;
    std::size_t accepted = 0;
    for (std::uint64_t key : batch->keys) {
      ShardState& shard = shards_[key % shards_.size()];
      while (!shard.completions.empty() &&
             shard.completions.front() <= verify_done) {
        shard.completions.pop_front();
      }
      if (shard.completions.size() >= cfg_.queue_capacity) {
        StatsFor(batch->flow).sheds += 1;
        shed_keys.push_back(key);
        continue;
      }
      std::uint64_t start = std::max(shard.busy_until_us, verify_done);
      std::uint64_t done;
      if (!signers_.empty()) {
        // Signer-pool model: the shard frees after its serialized
        // mutate; private-key work queues on the pool.
        std::uint64_t mutate_done = start + cost.mutate_us;
        shard.busy_until_us = mutate_done;
        done = IssueOnPool(&signers_, mutate_done, cost.issue_us);
      } else {
        done = start + cost.mutate_us + cost.issue_us;
        shard.busy_until_us = done;
      }
      shard.completions.push_back(done);
      result_.max_backlog_items = std::max<std::uint64_t>(
          result_.max_backlog_items, shard.completions.size());
      last_done = std::max(last_done, done);
      ++accepted;
    }

    // Response rides back once the slowest accepted item commits.
    std::size_t resp_bytes =
        batch->keys.size() * cfg_.response_bytes_per_item;
    result_.wire_messages += 1;
    result_.wire_bytes += resp_bytes;
    std::uint64_t recv =
        SaturatingAddUs(last_done, cfg_.wire.CostUs(resp_bytes));
    loop_.ScheduleAt(recv, [this, batch, accepted,
                            shed = std::move(shed_keys)]() {
      Receive(batch, accepted, shed);
    });
  }

  /// Client receives the per-item statuses: records completions,
  /// re-sends only the shed keys after honoring the full retry hint in
  /// virtual time, and — once the batch is fully resolved — schedules
  /// its next think cycle (closed loop).
  void Receive(const std::shared_ptr<Batch>& batch, std::size_t accepted,
               const std::vector<std::uint64_t>& shed) {
    FlowStats& fs = StatsFor(batch->flow);
    double item_latency =
        static_cast<double>(clock_.NowUs() - batch->first_send_us);
    for (std::size_t i = 0; i < accepted; ++i) {
      fs.completed += 1;
      fs.latency.Add(item_latency);
    }
    if (!shed.empty() && batch->attempts < cfg_.overload_max_attempts) {
      // A shed item left no server-side trace: re-batch only the shed
      // keys, after the hint — served by the event loop, not a sleep.
      fs.retried += shed.size();
      result_.backoff_ms_honored += cfg_.retry_hint_ms;
      batch->keys = shed;
      loop_.ScheduleAfter(
          static_cast<std::uint64_t>(cfg_.retry_hint_ms) * 1000ull,
          [this, batch]() { Send(batch); });
      return;
    }
    if (!shed.empty()) fs.exhausted += shed.size();
    // Batch resolved; the user thinks, then goes again.
    std::size_t user = batch->user;
    loop_.ScheduleAfter(SampleThinkUs(), [this, user]() { NextBatch(user); });
  }

  std::vector<ShardState> shards_;
  std::vector<std::uint64_t> signers_;  ///< empty = legacy shard-bound issue
  std::uint64_t dispatcher_busy_until_ = 0;
};

/// The cluster engine (ISSUE 6): same closed-loop workload, but the
/// provider is a REAL cluster::ProviderCluster — live spent sets, live
/// journal segments — fronted by per-replica MODELED resources (a
/// dispatcher and shards_per_replica shard backlogs each, identical to
/// the single-provider model). Correctness events (fresh spend,
/// double-spend rejection, journal replay on failover) are real;
/// every microsecond is virtual.
///
/// Clients share one (possibly stale) ring view. A batch splits into one
/// wire message per believed owner; a replica answers ids it does not
/// own — or any id when it is dead, modeling the fabric's
/// connection-refused path — with kWrongReplica + the live owner, which
/// refreshes the shared view and re-routes the item (bounded hops).
/// During the crash→failover window the moved ranges answer kOverloaded
/// (ProviderCluster's recovery gate), so the ordinary shed-retry loop is
/// what carries clients across the handoff.
class ClusterEngine : public EngineBase {
 public:
  explicit ClusterEngine(const ScenarioConfig& cfg) : EngineBase(cfg) {
    cluster::ClusterConfig cc;
    cc.replica_count = std::max<std::size_t>(cfg.cluster.replica_count, 2);
    cc.vnodes_per_replica = cfg.cluster.vnodes_per_replica;
    cc.shards_per_replica =
        std::max<std::size_t>(cfg.cluster.shards_per_replica, 1);
    cc.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
    cc.journal_prefix = cfg.cluster.journal_prefix;
    cc.fresh_start = true;  // a scenario run owns its journal family
    cc.obs = cfg.obs;  // cluster records crash/failover instants + counters
    cluster_ = std::make_unique<cluster::ProviderCluster>(cc);
    client_ring_ = cluster_->ring();
    victim_ = static_cast<std::uint32_t>(cfg.cluster.crash_replica %
                                         cc.replica_count);
    replicas_.resize(cc.replica_count);
    for (ReplicaModel& rm : replicas_) {
      rm.shards.resize(cc.shards_per_replica);
      rm.signers.assign(cfg.signer_pool_size, 0);
    }
  }

  ScenarioResult Run() {
    TracerClockScope trace_clock(cfg_.obs.tracer, &clock_);
    ScheduleUsers();
    if (cfg_.cluster.crash_at_us > 0) {
      loop_.ScheduleAt(cfg_.cluster.crash_at_us, [this] { CrashEvent(); });
    }
    loop_.RunUntilIdle();
    result_.virtual_duration_us = clock_.NowUs();
    result_.events_executed = loop_.ExecutedCount();
    result_.cluster.enabled = true;
    result_.cluster.ring_epoch_final = cluster_->epoch();
    result_.cluster.replicas_alive_final = cluster_->AliveCount();
    result_.cluster.total_spent_final = cluster_->TotalSpentSize();
    return std::move(result_);
  }

 private:
  /// Modeled service resources of one replica (mirrors Engine's
  /// dispatcher + shard backlogs, one set per replica).
  struct ReplicaModel {
    std::uint64_t dispatcher_busy_until_us = 0;
    std::vector<ShardState> shards;
    std::vector<std::uint64_t> signers;  ///< per-replica signer pool
  };

  /// One in-flight wire message: the slice of a user's batch addressed
  /// to one replica. `outstanding` joins the slices of one think cycle.
  struct CBatch {
    std::size_t user = 0;
    Flow flow = Flow::kRedeem;
    std::uint64_t first_send_us = 0;
    std::size_t attempts = 0;  ///< wire sends (shed-retry budget)
    std::size_t hops = 0;      ///< kWrongReplica re-routes so far
    std::uint32_t target = 0;
    std::vector<rel::LicenseId> ids;
    std::shared_ptr<std::size_t> outstanding;
  };

  /// Unique per-serial license id. In cluster mode every flow routes by
  /// a fresh license/coin id (ring placement is license-keyed); the Zipf
  /// catalog draw still happens per item so the popularity metric — and
  /// the rng stream shape — matches the single-provider engine.
  static rel::LicenseId MakeId(std::uint64_t serial) {
    rel::LicenseId id;
    std::uint64_t a = SplitMix64(serial ^ 0x11D5EED5ull);
    std::uint64_t b = SplitMix64(serial + 0x9e3779b97f4a7c15ull);
    for (int i = 0; i < 8; ++i) {
      id.bytes[i] = static_cast<std::uint8_t>(a >> (56 - 8 * i));
      id.bytes[8 + i] = static_cast<std::uint8_t>(b >> (56 - 8 * i));
    }
    return id;
  }

  /// Modeled shard of an id within a replica (its own fold — which REAL
  /// runtime shard commits the id is the runtime's business).
  std::size_t ModelShardOf(const rel::LicenseId& id) const {
    std::uint64_t x = 0;
    for (int i = 8; i < 16; ++i) x = (x << 8) | id.bytes[i];
    return SplitMix64(x ^ 0x5AADull) % replicas_[0].shards.size();
  }

  void FirstBatch(std::size_t user) override { NextBatch(user); }

  void NextBatch(std::size_t user) {
    if (issued_items_ >= cfg_.total_requests) return;  // user retires
    Flow flow = SampleFlow();
    std::uint64_t now = clock_.NowUs();
    std::size_t n = std::max<std::size_t>(cfg_.batch_size, 1);
    std::vector<rel::LicenseId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t rank = zipf_.Next(&rng_);
      if (rank < hot_threshold_) ++result_.zipf_top1pct_hits;
      ids.push_back(MakeId(route_counter_++));
    }
    issued_items_ += n;
    StatsFor(flow).issued += n;
    // One wire message per believed owner (deterministic replica order).
    std::map<std::uint32_t, std::vector<rel::LicenseId>> groups;
    for (const rel::LicenseId& id : ids) {
      groups[client_ring_.OwnerOf(id)].push_back(id);
    }
    auto outstanding = std::make_shared<std::size_t>(groups.size());
    for (auto& [owner, slice] : groups) {
      auto batch = std::make_shared<CBatch>();
      batch->user = user;
      batch->flow = flow;
      batch->first_send_us = now;
      batch->target = owner;
      batch->ids = std::move(slice);
      batch->outstanding = outstanding;
      Send(std::move(batch));
    }
  }

  void Send(std::shared_ptr<CBatch> batch) {
    batch->attempts += 1;
    ++result_.batches_sent;
    std::size_t req_bytes = batch->ids.size() * cfg_.request_bytes_per_item;
    result_.wire_messages += 1;
    result_.wire_bytes += req_bytes;
    loop_.ScheduleAfter(cfg_.wire.CostUs(req_bytes),
                        [this, batch = std::move(batch)]() { Serve(batch); });
  }

  void Serve(const std::shared_ptr<CBatch>& batch) {
    const std::uint32_t r = batch->target;
    const FlowCost& cost = CostFor(batch->flow);
    std::vector<cluster::SpendOutcome> outcomes;
    cluster_->ClassifyBatch(r, batch->ids, &outcomes);

    const std::uint64_t arrival = clock_.NowUs();
    std::uint64_t verify_done = arrival;
    if (cluster_->IsAlive(r)) {
      // A live replica pays amortized verify for the whole slice; a dead
      // target's kWrongReplica comes from the fabric at wire speed.
      ReplicaModel& rm = replicas_[r];
      std::uint64_t verify_start =
          std::max(rm.dispatcher_busy_until_us, arrival);
      verify_done = verify_start + cost.verify_us * batch->ids.size();
      rm.dispatcher_busy_until_us = verify_done;
    }

    std::vector<rel::LicenseId> redirect_ids;
    std::vector<rel::LicenseId> shed_ids;
    std::vector<rel::LicenseId> admitted;
    std::uint64_t last_done = verify_done;
    for (std::size_t i = 0; i < batch->ids.size(); ++i) {
      const rel::LicenseId& id = batch->ids[i];
      switch (outcomes[i].status) {
        case core::Status::kWrongReplica:
          ++result_.cluster.redirect_responses;
          redirect_ids.push_back(id);
          break;
        case core::Status::kOverloaded:  // recovery gate: range mid-replay
          StatsFor(batch->flow).sheds += 1;
          shed_ids.push_back(id);
          break;
        default: {  // kOk: modeled backlog admission, then a real spend
          ShardState& shard = replicas_[r].shards[ModelShardOf(id)];
          while (!shard.completions.empty() &&
                 shard.completions.front() <= verify_done) {
            shard.completions.pop_front();
          }
          if (shard.completions.size() >= cfg_.queue_capacity) {
            StatsFor(batch->flow).sheds += 1;
            shed_ids.push_back(id);
            break;
          }
          std::uint64_t start = std::max(shard.busy_until_us, verify_done);
          std::uint64_t done;
          if (!replicas_[r].signers.empty()) {
            std::uint64_t mutate_done = start + cost.mutate_us;
            shard.busy_until_us = mutate_done;
            done = IssueOnPool(&replicas_[r].signers, mutate_done,
                               cost.issue_us);
          } else {
            done = start + cost.mutate_us + cost.issue_us;
            shard.busy_until_us = done;
          }
          shard.completions.push_back(done);
          result_.max_backlog_items = std::max<std::uint64_t>(
              result_.max_backlog_items, shard.completions.size());
          last_done = std::max(last_done, done);
          admitted.push_back(id);
          break;
        }
      }
    }

    if (!redirect_ids.empty() && cfg_.obs.tracer != nullptr) {
      cfg_.obs.tracer->Instant("redirect", "items", redirect_ids.size());
    }

    std::size_t completed = 0;
    if (!admitted.empty()) {
      // The real commit: actual spent-set inserts + journal appends on
      // r's runtime. Ids are unique, so every admitted id lands kOk.
      std::vector<cluster::SpendOutcome> spent;
      cluster_->SpendBatchAt(r, admitted, &spent);
      for (const cluster::SpendOutcome& o : spent) {
        if (o.status == core::Status::kOk ||
            o.status == core::Status::kAlreadySpent) {
          ++completed;
        }
      }
      if (!crashed_ && r == victim_) {
        // Remember what the future victim committed — the failover audit
        // re-spends exactly these to prove none were lost.
        committed_on_victim_.insert(committed_on_victim_.end(),
                                    admitted.begin(), admitted.end());
      }
    }

    std::size_t resp_bytes = batch->ids.size() * cfg_.response_bytes_per_item;
    result_.wire_messages += 1;
    result_.wire_bytes += resp_bytes;
    std::uint64_t recv =
        SaturatingAddUs(last_done, cfg_.wire.CostUs(resp_bytes));
    loop_.ScheduleAt(recv, [this, batch, completed,
                            shed = std::move(shed_ids),
                            redirects = std::move(redirect_ids)]() {
      Receive(batch, completed, shed, redirects);
    });
  }

  void Receive(const std::shared_ptr<CBatch>& batch, std::size_t completed,
               const std::vector<rel::LicenseId>& shed,
               const std::vector<rel::LicenseId>& redirects) {
    FlowStats& fs = StatsFor(batch->flow);
    double item_latency =
        static_cast<double>(clock_.NowUs() - batch->first_send_us);
    for (std::size_t i = 0; i < completed; ++i) {
      fs.completed += 1;
      fs.latency.Add(item_latency);
    }

    if (!shed.empty()) {
      if (batch->attempts < cfg_.overload_max_attempts) {
        // Same target on purpose: the gate lifts when failover completes,
        // so the ordinary hinted retry is the recovery path.
        fs.retried += shed.size();
        result_.backoff_ms_honored += cfg_.retry_hint_ms;
        auto child = Child(batch, batch->target, shed, batch->hops);
        loop_.ScheduleAfter(
            static_cast<std::uint64_t>(cfg_.retry_hint_ms) * 1000ull,
            [this, child]() { Send(child); });
      } else {
        fs.exhausted += shed.size();
      }
    }

    if (!redirects.empty()) {
      // The redirect hint carries the live ring epoch: the client
      // refreshes the SHARED view (every user benefits) and re-routes.
      client_ring_ = cluster_->ring();
      if (batch->hops < cfg_.cluster.redirect_max_hops) {
        std::map<std::uint32_t, std::vector<rel::LicenseId>> groups;
        for (const rel::LicenseId& id : redirects) {
          groups[client_ring_.OwnerOf(id)].push_back(id);
        }
        for (auto& [owner, slice] : groups) {
          auto child = Child(batch, owner, slice, batch->hops + 1);
          Send(std::move(child));
        }
      } else {
        fs.redirected += redirects.size();
      }
    }

    if (--*batch->outstanding == 0) {
      std::size_t user = batch->user;
      loop_.ScheduleAfter(SampleThinkUs(),
                          [this, user]() { NextBatch(user); });
    }
  }

  /// A follow-up slice (retry or re-route) joining the same think cycle.
  std::shared_ptr<CBatch> Child(const std::shared_ptr<CBatch>& parent,
                                std::uint32_t target,
                                const std::vector<rel::LicenseId>& ids,
                                std::size_t hops) {
    auto child = std::make_shared<CBatch>();
    child->user = parent->user;
    child->flow = parent->flow;
    child->first_send_us = parent->first_send_us;
    child->attempts = parent->attempts;
    child->hops = hops;
    child->target = target;
    child->ids = ids;
    child->outstanding = parent->outstanding;
    ++*child->outstanding;
    return child;
  }

  void CrashEvent() {
    if (!cluster_->IsAlive(victim_) || cluster_->Recovering()) return;
    cluster_->Crash(victim_, cfg_.cluster.tear_journal_tail);
    crashed_ = true;
    result_.cluster.crash_at_us = clock_.NowUs();
    // The recovery-gate span opens at the crash (Crash itself emitted the
    // cluster.crash instant) and closes when FailoverEvent lifts it.
    if (cfg_.obs.tracer != nullptr) cfg_.obs.tracer->Begin("recovery_gate");
    // Failover duration is modeled from what is REALLY on disk: the
    // victim's intact journal records (the torn tail, if injected, is
    // not among them). Detection and replay are two scheduled events —
    // regardless of tracing, so events_executed is identical traced or
    // not — which gives the trace a journal_replay span that starts when
    // detection fires rather than one opaque crash→done gap.
    std::uint64_t records = cluster_->JournalRecordCount(victim_);
    loop_.ScheduleAfter(cfg_.cluster.failover_detect_us, [this, records] {
      if (cfg_.obs.tracer != nullptr) {
        cfg_.obs.tracer->BeginWithArg("journal_replay", "records", records);
      }
      loop_.ScheduleAfter(cfg_.cluster.replay_per_record_us * records,
                          [this] { FailoverEvent(); });
    });
  }

  void FailoverEvent() {
    cluster::FailoverStats fo = cluster_->CompleteFailover();
    result_.cluster.failover_completed_at_us = clock_.NowUs();
    result_.cluster.replayed_records = fo.records;
    result_.cluster.imported_fresh = fo.imported_fresh;
    result_.cluster.imported_duplicates = fo.imported_duplicates;
    result_.cluster.torn_tails_skipped = fo.torn_tails;
    if (cfg_.obs.tracer != nullptr) {
      // Close in nesting order: replay ends, then the gate lifts (both at
      // this instant — CompleteFailover already emitted its own marker).
      cfg_.obs.tracer->End("journal_replay");
      cfg_.obs.tracer->End("recovery_gate");
    }
    if (!cfg_.cluster.audit_after_failover) return;
    // The invariant, checked against the real spent sets: every id the
    // victim committed must still be refused everywhere. Any kOk here is
    // a double spend that journal replay failed to prevent.
    result_.cluster.audit_rechecks = committed_on_victim_.size();
    std::map<std::uint32_t, std::vector<rel::LicenseId>> groups;
    for (const rel::LicenseId& id : committed_on_victim_) {
      groups[cluster_->OwnerOf(id)].push_back(id);
    }
    for (auto& [owner, slice] : groups) {
      std::vector<cluster::SpendOutcome> out;
      cluster_->SpendBatchAt(owner, slice, &out);
      for (const cluster::SpendOutcome& o : out) {
        if (o.status == core::Status::kOk) ++result_.cluster.double_spends;
      }
    }
  }

  std::unique_ptr<cluster::ProviderCluster> cluster_;
  cluster::HashRing client_ring_;  ///< the clients' shared (stale) view
  std::vector<ReplicaModel> replicas_;
  std::vector<rel::LicenseId> committed_on_victim_;
  std::uint32_t victim_ = 0;
  bool crashed_ = false;
};

}  // namespace

ScenarioDriver::ScenarioDriver(const ScenarioConfig& config)
    : config_(config) {}

ScenarioResult ScenarioDriver::Run() {
  if (config_.cluster.enabled) {
    ClusterEngine engine(config_);
    return engine.Run();
  }
  Engine engine(config_);
  return engine.Run();
}

}  // namespace sim
}  // namespace p2drm
