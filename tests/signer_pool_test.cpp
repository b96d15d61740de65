// Tests for server::SignerPool: the dedicated work-stealing pool the
// streaming pipeline fans the issue stage out to. Covers completion
// across pool sizes, the deterministic steal path (a blocked owner's
// work finishes on a thief), drain-then-exit shutdown with tickets
// outstanding, and the queue-depth/steal metrics. The shutdown and
// steal tests also run under TSan in CI — the pool's sleep/wake and
// per-deque locking contracts are only trusted because the race
// detector agrees.

#include "server/signer_pool.h"

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.h"

namespace p2drm {
namespace {

TEST(SignerPool, SubmitBatchExecutesEveryItemAcrossPoolSizes) {
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    server::SignerPool pool(workers);
    ASSERT_EQ(pool.worker_count(), workers);
    const std::size_t n = 101;  // not a multiple of any pool size above
    // Disjoint per-k writes — the BatchPlan::issue contract; the
    // ticket's Wait establishes the happens-before the plain reads below
    // rely on.
    std::vector<int> hits(n, 0);
    pool.SubmitBatch(n, [&hits](server::SignerContext&, std::size_t k) {
          hits[k] += 1;
        })
        .Wait();
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(hits[k], 1) << "workers=" << workers << " k=" << k;
    }
  }
}

TEST(SignerPool, TicketWaitJoinsExactlyItsBatch) {
  server::SignerPool pool(4);
  std::atomic<std::size_t> a{0};
  std::atomic<std::size_t> b{0};
  server::SignerPool::Ticket ta = pool.SubmitBatch(
      64, [&a](server::SignerContext&, std::size_t) { ++a; });
  server::SignerPool::Ticket tb = pool.SubmitBatch(
      32, [&b](server::SignerContext&, std::size_t) { ++b; });
  tb.Wait();
  EXPECT_EQ(b.load(), 32u);
  ta.Wait();
  EXPECT_EQ(a.load(), 64u);
  // Waiting again on a completed ticket is a no-op, not a hang.
  ta.Wait();
}

TEST(SignerPool, BlockedOwnersWorkFinishesOnAThief) {
  server::SignerPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());

  // Batch A: one item; whichever worker picks it up (the owner, or a
  // thief that got there first) parks on the gate.
  std::atomic<std::size_t> parked{99};
  server::SignerPool::Ticket ta = pool.SubmitBatch(
      1, [gate, &parked](server::SignerContext& ctx, std::size_t) {
        parked.store(ctx.index);
        gate.wait();
      });
  // Deal batch B only once A is parked; otherwise one worker can run all
  // of B before picking A up, and "the other worker" is undefined.
  while (parked.load() == 99) std::this_thread::yield();

  // Batch B: one item per worker deque. The parked worker's item can
  // only complete by a steal, so Wait() returning while the gate is
  // still closed proves the free worker stole it.
  std::vector<std::size_t> ran_on(2, 99);
  server::SignerPool::Ticket tb = pool.SubmitBatch(
      2, [&ran_on](server::SignerContext& ctx, std::size_t k) {
        ran_on[k] = ctx.index;
      });
  tb.Wait();
  std::size_t free_worker = 1 - parked.load();
  EXPECT_EQ(ran_on[0], free_worker);
  EXPECT_EQ(ran_on[1], free_worker);
  EXPECT_GE(pool.Steals(), 1u);

  release.set_value();
  ta.Wait();
}

TEST(SignerPool, DestructorDrainsOutstandingTickets) {
  // Shutdown with queued work and NO Wait: the destructor must not exit
  // a worker until every dealt item has run (drain-then-exit), and a
  // ticket held past destruction must observe the completed batch.
  std::atomic<std::size_t> ran{0};
  server::SignerPool::Ticket ticket;
  {
    server::SignerPool pool(3);
    for (int round = 0; round < 8; ++round) {
      ticket = pool.SubmitBatch(
          64, [&ran](server::SignerContext&, std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
          });
    }
  }
  EXPECT_EQ(ran.load(), 8u * 64u);
  ticket.Wait();  // completed during drain; must return immediately
}

TEST(SignerPool, ShutdownRacesStealsCleanly) {
  // Steal-during-shutdown stress (the TSan target): tiny uneven batches
  // keep thieves active while the destructor runs. Every item must run
  // exactly once, every time.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> ran{0};
    {
      server::SignerPool pool(4);
      for (std::size_t b = 1; b <= 5; ++b) {
        pool.SubmitBatch(b * 7, [&ran](server::SignerContext&, std::size_t) {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    EXPECT_EQ(ran.load(), 7u + 14u + 21u + 28u + 35u);
  }
}

TEST(SignerPool, SimClockAccruesPerWorker) {
  server::SignerPool pool(2);
  pool.SubmitBatch(10, [](server::SignerContext& ctx, std::size_t) {
        ctx.AccrueSimClockUs(5);
      })
      .Wait();
  std::uint64_t total = pool.WorkerSimClockUs(0) + pool.WorkerSimClockUs(1);
  EXPECT_EQ(total, 50u);
  EXPECT_GE(pool.MaxWorkerSimClockUs(), 25u);  // one worker did >= half
  EXPECT_LE(pool.MaxWorkerSimClockUs(), 50u);
}

TEST(SignerPool, ObservabilityGaugeZeroAtQuiesceAndStealsExported) {
  obs::Registry registry;
  server::SignerPool pool(2);
  pool.set_observability(&registry, "pool.");
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  server::SignerPool::Ticket park = pool.SubmitBatch(
      1, [gate](server::SignerContext&, std::size_t) { gate.wait(); });
  server::SignerPool::Ticket work = pool.SubmitBatch(
      8, [](server::SignerContext&, std::size_t) {});
  work.Wait();
  release.set_value();
  park.Wait();

  bool saw_gauge = false;
  bool saw_steals = false;
  for (const auto& m : registry.Aggregate()) {
    if (m.name == "pool.queue_depth") {
      saw_gauge = true;
      EXPECT_EQ(m.gauge, 0) << "queue depth must be exact at quiesce";
    }
    if (m.name == "pool.steals") {
      saw_steals = true;
      EXPECT_EQ(m.counter, pool.Steals());
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_steals);
}

}  // namespace
}  // namespace p2drm
