#include "server/signer_pool.h"

namespace p2drm {
namespace server {

// Completion state for one SubmitBatch call. `remaining` is guarded by
// `m`; the last item to finish notifies under the lock, and the
// shared_ptr keeps the batch alive until every item AND every ticket
// copy has let go, so there is no destroyed-while-notifying window.
struct SignerPool::Batch {
  Job work;
  std::mutex m;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
};

void SignerPool::Ticket::Wait() {
  if (batch_ == nullptr) return;
  std::unique_lock<std::mutex> lk(batch_->m);
  batch_->done_cv.wait(lk, [this] { return batch_->remaining == 0; });
}

SignerPool::SignerPool(std::size_t worker_count) {
  if (worker_count == 0) worker_count = 1;
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->ctx.index = i;
  }
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

SignerPool::~SignerPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

SignerPool::Ticket SignerPool::SubmitBatch(std::size_t count, Job work) {
  auto batch = std::make_shared<Batch>();
  batch->work = std::move(work);
  batch->remaining = count;
  Ticket ticket(batch);
  if (count == 0) return ticket;

  // Publish the item count BEFORE dealing: a worker that wakes on the
  // notify below and finds its deque still empty rechecks the predicate
  // (pending_ > 0 holds) and rescans — a bounded spin that closes once
  // the deal loop finishes, never a lost wakeup.
  pending_.fetch_add(count, std::memory_order_release);
  const std::size_t n = workers_.size();
  for (std::size_t k = 0; k < count; ++k) {
    Worker& w = *workers_[k % n];
    std::lock_guard<std::mutex> lk(w.m);
    w.dq.push_back(Item{batch, k});
  }
  if (registry_ != nullptr) {
    registry_->GaugeAdd(gauge_queue_, static_cast<std::int64_t>(count));
  }
  {
    // Empty critical section: pairs with the waiter's predicate check so
    // the notify cannot land between "predicate false" and "blocked".
    std::lock_guard<std::mutex> lk(sleep_m_);
  }
  sleep_cv_.notify_all();
  return ticket;
}

std::uint64_t SignerPool::Steals() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) {
    total += w->steals.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t SignerPool::MaxWorkerSimClockUs() const {
  std::uint64_t max_us = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    std::uint64_t us = WorkerSimClockUs(i);
    if (us > max_us) max_us = us;
  }
  return max_us;
}

void SignerPool::set_observability(obs::Registry* registry,
                                   const std::string& prefix) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  gauge_queue_ = registry_->Gauge(prefix + "queue_depth");
  ctr_steals_ = registry_->Counter(prefix + "steals");
}

bool SignerPool::TryRunOne(std::size_t self_index) {
  Worker& self = *workers_[self_index];
  Item item;
  bool got = false;
  bool stolen = false;
  {
    std::lock_guard<std::mutex> lk(self.m);
    if (!self.dq.empty()) {
      item = std::move(self.dq.front());
      self.dq.pop_front();
      got = true;
    }
  }
  if (!got) {
    const std::size_t n = workers_.size();
    for (std::size_t d = 1; d < n && !got; ++d) {
      Worker& victim = *workers_[(self_index + d) % n];
      std::lock_guard<std::mutex> lk(victim.m);
      if (!victim.dq.empty()) {
        item = std::move(victim.dq.back());  // steal-from-back
        victim.dq.pop_back();
        got = true;
        stolen = true;
      }
    }
  }
  if (!got) return false;

  pending_.fetch_sub(1, std::memory_order_acq_rel);
  if (stolen) {
    self.steals.fetch_add(1, std::memory_order_relaxed);
    if (registry_ != nullptr) registry_->Add(ctr_steals_);
  }
  // Gauge decrements at dequeue, before the work runs — queue_depth is
  // "queued, not yet started", deterministically zero at quiesce.
  if (registry_ != nullptr) registry_->GaugeAdd(gauge_queue_, -1);

  item.batch->work(self.ctx, item.k);
  self.ctx.executed.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(item.batch->m);
    if (--item.batch->remaining == 0) item.batch->done_cv.notify_all();
  }
  return true;
}

void SignerPool::WorkerLoop(std::size_t index) {
  for (;;) {
    if (TryRunOne(index)) continue;
    std::unique_lock<std::mutex> lk(sleep_m_);
    sleep_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    // Exit only once the deques are provably drained: stop_ set and no
    // dealt item unpopped. An item popped elsewhere but still running
    // belongs to that worker; its ticket completes independently.
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace server
}  // namespace p2drm
