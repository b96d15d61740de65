#include "server/stage_executor.h"

#include <atomic>
#include <utility>
#include <vector>

#include "core/errors.h"

namespace p2drm {
namespace server {

struct StagedBatchPipeline::InFlightBatch {
  BatchPlan plan;
  const PipelineObs* pobs = nullptr;
  std::function<void()> on_commit;

  std::vector<std::size_t> eligible;     // verify survivors (item indices)
  std::vector<core::Status> mutated;     // per-eligible mutate status
  std::vector<std::size_t> live;         // indices into eligible

  SignerPool::Ticket ticket;             // empty when issued inline

  BatchPipelineTimings t;                // verify/mutate spans; issue below
  // A joined issue stores its dispatch-side span here at launch; a
  // streamed pooled issue accrues busy time from the workers while the
  // dispatch thread keeps running — summed relaxed, read after
  // ticket.Wait().
  std::atomic<std::uint64_t> issue_us{0};
  std::uint64_t issue_join_us = 0;       // clock at the join, when joined
};

StagedBatchPipeline::StagedBatchPipeline(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.max_batches_in_flight == 0) cfg_.max_batches_in_flight = 1;
}

StagedBatchPipeline::~StagedBatchPipeline() {
  while (!inflight_.empty()) CommitHead();
}

std::uint64_t StagedBatchPipeline::Now() const {
  return cfg_.now_us != nullptr ? cfg_.now_us() : SteadyNowUs();
}

void StagedBatchPipeline::set_observability(obs::Registry* registry,
                                            const std::string& prefix) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  gauge_inflight_ = registry_->Gauge(prefix + "batches_in_flight");
}

void StagedBatchPipeline::Submit(BatchPlan plan, const PipelineObs* pobs,
                                 std::function<void()> on_commit) {
  if (plan.item_count == 0) {
    if (on_commit != nullptr) on_commit();
    return;
  }
  Launch(std::move(plan), pobs, std::move(on_commit), /*join=*/false);
}

BatchPipelineTimings StagedBatchPipeline::SubmitSync(
    BatchPlan plan, const PipelineObs* pobs, std::function<void()> on_commit) {
  if (plan.item_count == 0) {
    if (on_commit != nullptr) on_commit();
    return BatchPipelineTimings{};
  }
  Flush();  // batches already in flight commit first, in submit order
  Launch(std::move(plan), pobs, std::move(on_commit), /*join=*/true);
  const std::uint64_t join_us = inflight_.back()->issue_join_us;
  CommitHead();
  // The window held this one batch: its busy sums are its own spans, and
  // the makespan ends at the issue join (six clock samples in all).
  BatchPipelineTimings t = agg_;
  t.makespan_us = static_cast<double>(join_us - window_start_us_);
  agg_ = BatchPipelineTimings{};
  window_open_ = false;
  return t;
}

void StagedBatchPipeline::Launch(BatchPlan plan, const PipelineObs* pobs,
                                 std::function<void()> on_commit, bool join) {
  // Deterministic commit points: only when the window is full. Never on
  // "the ticket happens to be done" — that would make the interleaving
  // of commit(B) and verify(B+n) depend on worker scheduling.
  while (inflight_.size() >= cfg_.max_batches_in_flight) CommitHead();

  auto b = std::make_unique<InFlightBatch>();
  b->plan = std::move(plan);
  b->pobs = pobs;
  b->on_commit = std::move(on_commit);
  b->t.items = b->plan.item_count;

  obs::Tracer* tracer = pobs != nullptr ? pobs->tracer : nullptr;

  // Stage 1 — verify (dispatch thread). The first verify-t0 of a window
  // doubles as the window's makespan start.
  std::uint64_t stage_t0 = Now();
  if (!window_open_) {
    window_open_ = true;
    window_start_us_ = stage_t0;
  }
  if (tracer != nullptr) tracer->Begin(pobs->span_verify);
  if (b->plan.verify != nullptr) {
    b->eligible = b->plan.verify();
  } else {
    b->eligible.resize(b->plan.item_count);
    for (std::size_t i = 0; i < b->plan.item_count; ++i) b->eligible[i] = i;
  }
  if (tracer != nullptr) tracer->End(pobs->span_verify);
  b->t.verify_us = static_cast<double>(Now() - stage_t0);

  // Stage 2 — mutate (the only shed point, surfaced before launch
  // returns so a shed item has no trace even under overlap).
  stage_t0 = Now();
  if (tracer != nullptr) tracer->Begin(pobs->span_mutate);
  if (b->plan.mutate != nullptr) {
    b->mutated = b->plan.mutate(b->eligible);
  } else {
    b->mutated.assign(b->eligible.size(), core::Status::kOk);
  }
  if (tracer != nullptr) tracer->End(pobs->span_mutate);
  b->t.mutate_us = static_cast<double>(Now() - stage_t0);

  // Partition into the live set (kOk, plus whatever `proceed` admits)
  // and rejections. kOverloaded can never proceed: a shed item must
  // leave no trace beyond its status.
  b->live.reserve(b->eligible.size());
  for (std::size_t j = 0; j < b->eligible.size(); ++j) {
    core::Status s = b->mutated[j];
    bool proceeds =
        s == core::Status::kOk ||
        (s != core::Status::kOverloaded && b->plan.proceed != nullptr &&
         b->plan.proceed(s));
    if (proceeds) {
      b->live.push_back(j);
      continue;
    }
    if (s == core::Status::kOverloaded) ++b->t.shed;
    if (b->plan.reject != nullptr) b->plan.reject(b->eligible[j], s);
  }
  b->t.committed = b->live.size();

  // Stage 3 — issue. A joined issue (inline, or a synchronous call) is
  // one dispatch-side span with a tracer span, from the fork draw to
  // the join. A streamed pooled issue returns once the fan-out is dealt,
  // with no tracer span (B/E spans must nest per thread and in-flight
  // batches interleave); its busy time is summed on the workers.
  const bool pooled = cfg_.pool != nullptr && b->plan.issue != nullptr &&
                      !b->live.empty();
  const bool joined = join || !pooled;
  stage_t0 = Now();
  if (joined && tracer != nullptr) tracer->Begin(pobs->span_issue);
  // Forks on the dispatch thread, ascending k — the shared-RNG draws
  // stay in launch order, which is the whole bit-identical guarantee.
  if (b->plan.begin_issue != nullptr) b->plan.begin_issue(b->live.size());
  if (b->plan.draw_fork != nullptr) {
    for (std::size_t k = 0; k < b->live.size(); ++k) {
      b->plan.draw_fork(k, b->eligible[b->live[k]]);
    }
  }
  if (pooled) {
    InFlightBatch* bp = b.get();
    TimeSourceUs now_us = cfg_.now_us;  // workers need their own copy
    b->ticket = cfg_.pool->SubmitBatch(
        b->live.size(), [bp, now_us](SignerContext& ctx, std::size_t k) {
          std::uint64_t t0 = now_us != nullptr ? now_us() : SteadyNowUs();
          std::size_t j = bp->live[k];
          bp->plan.issue(k, bp->eligible[j], bp->mutated[j]);
          std::uint64_t t1 = now_us != nullptr ? now_us() : SteadyNowUs();
          ctx.AccrueSimClockUs(t1 - t0);
          bp->issue_us.fetch_add(t1 - t0, std::memory_order_relaxed);
        });
    if (joined) b->ticket.Wait();
  } else if (b->plan.issue != nullptr) {
    for (std::size_t k = 0; k < b->live.size(); ++k) {
      std::size_t j = b->live[k];
      b->plan.issue(k, b->eligible[j], b->mutated[j]);
    }
  }
  if (joined) {
    if (tracer != nullptr) tracer->End(pobs->span_issue);
    // After the join no worker writes issue_us again: the span replaces
    // the workers' busy sum.
    b->issue_join_us = Now();
    b->issue_us.store(b->issue_join_us - stage_t0, std::memory_order_relaxed);
  }

  inflight_.push_back(std::move(b));
  if (registry_ != nullptr) registry_->GaugeAdd(gauge_inflight_, 1);
}

void StagedBatchPipeline::CommitHead() {
  // Unlink before the commit tail: an on_commit that calls back into the
  // pipeline (a results callback making a synchronous batch call) must
  // not find this batch still queued and commit it a second time.
  std::unique_ptr<InFlightBatch> head = std::move(inflight_.front());
  inflight_.pop_front();
  if (registry_ != nullptr) registry_->GaugeAdd(gauge_inflight_, -1);
  InFlightBatch& b = *head;
  b.ticket.Wait();  // returns at once if inline or joined at launch
  b.t.issue_us =
      static_cast<double>(b.issue_us.load(std::memory_order_relaxed));

  if (b.plan.commit != nullptr) {
    for (std::size_t k = 0; k < b.live.size(); ++k) {
      std::size_t j = b.live[k];
      b.plan.commit(k, b.eligible[j], b.mutated[j]);
    }
  }

  // Per-batch registry shape, emitted at commit time from the dispatch
  // thread.
  if (b.pobs != nullptr && b.pobs->registry != nullptr) {
    obs::Registry* reg = b.pobs->registry;
    reg->Observe(b.pobs->hist_verify_us,
                 static_cast<std::uint64_t>(b.t.verify_us));
    reg->Observe(b.pobs->hist_mutate_us,
                 static_cast<std::uint64_t>(b.t.mutate_us));
    reg->Observe(b.pobs->hist_issue_us,
                 static_cast<std::uint64_t>(b.t.issue_us));
    reg->Add(b.pobs->ctr_items, b.t.items);
    if (b.t.shed != 0) reg->Add(b.pobs->ctr_shed, b.t.shed);
  }

  agg_.verify_us += b.t.verify_us;
  agg_.mutate_us += b.t.mutate_us;
  agg_.issue_us += b.t.issue_us;
  agg_.items += b.t.items;
  agg_.shed += b.t.shed;
  agg_.committed += b.t.committed;

  if (b.on_commit != nullptr) b.on_commit();
}

BatchPipelineTimings StagedBatchPipeline::Flush() {
  while (!inflight_.empty()) CommitHead();
  BatchPipelineTimings t = agg_;
  if (window_open_) {
    t.makespan_us = static_cast<double>(Now() - window_start_us_);
  }
  agg_ = BatchPipelineTimings{};
  window_open_ = false;
  return t;
}

}  // namespace server
}  // namespace p2drm
