// Streaming batch pipeline: the Stream* entry points overlap
// batch B+1's verify with batch B's signing, yet must stay bit-identical
// to the synchronous batch calls under a fixed seed — commits in submit
// order, each commit tail in index order, DRBG forks drawn dispatch-side.
// Also covered: a batch shed at the mutate stage leaves no trace even
// while other streamed batches are in flight, the streamed deposit window
// defers account credits without reordering double-spend resolution, the
// window makespan is exact under an injected tick source, a synchronous
// call commits the streamed batches ahead of it, an empty batch follows
// one rule on every entry point, and destroying a provider with batches
// in flight commits them exactly once.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/content_provider.h"
#include "core/payment.h"
#include "server/server_runtime.h"
#include "server/signer_pool.h"
#include "sim/provider_stack.h"

namespace p2drm {
namespace core {
namespace {

using Stack = sim::ProviderStack;

// -- streaming vs serial: bit-identical mixed flows --------------------------

TEST(StreamingPipeline, MixedFlowsBitIdenticalToSerial) {
  // Same seed, same call sequence. The serial stack runs the synchronous
  // batch entry points; the streaming stack runs the same batches through
  // Stream* with a 2-batch window over a 3-signer pool, so two batches
  // are genuinely in flight while later ones are being verified.
  Stack serial("streaming-identical", 2);
  Stack streaming("streaming-identical", 2, 512, 4096,
                  /*signer_pool_size=*/3, /*max_batches_in_flight=*/2);
  ASSERT_NE(streaming.cp.Pool(), nullptr);

  // Fixture creation is the same sequence on both stacks, so every key,
  // coin and license going in is already bit-identical.
  auto fixtures = [](Stack& s) {
    struct F {
      std::vector<ContentProvider::RedeemItem> redeem1, redeem2;
      std::vector<ContentProvider::PurchaseItem> purchase;
      std::vector<ContentProvider::ExchangeItem> exchange;
    } f;
    Pseudonym* giver = s.NewPseudonym();
    Pseudonym* taker = s.NewPseudonym();
    for (int i = 0; i < 3; ++i) {
      f.redeem1.push_back({s.NewBearer(giver), taker->cert});
    }
    // In-batch duplicate: the detected-double-redemption leg must stream
    // identically too.
    f.redeem1.push_back(f.redeem1[0]);
    Pseudonym* buyer = s.NewPseudonym();
    for (int i = 0; i < 2; ++i) {
      f.purchase.push_back({buyer->cert, s.content, s.Pay(30)});
    }
    Pseudonym* owner = s.NewPseudonym();
    for (int i = 0; i < 2; ++i) {
      rel::License lic = s.NewBoundLicense(owner);
      f.exchange.push_back({lic, s.PossessionSig(owner, lic)});
    }
    for (int i = 0; i < 2; ++i) {
      f.redeem2.push_back({s.NewBearer(giver), taker->cert});
    }
    return f;
  };
  auto fs = fixtures(serial);
  auto ff = fixtures(streaming);

  auto out_r1 = serial.cp.RedeemAnonymousBatch(fs.redeem1);
  auto out_p = serial.cp.PurchaseBatch(fs.purchase);
  auto out_e = serial.cp.ExchangeBatch(fs.exchange);
  auto out_r2 = serial.cp.RedeemAnonymousBatch(fs.redeem2);

  std::optional<std::vector<ContentProvider::PurchaseResult>> got_r1, got_p,
      got_r2;
  std::optional<std::vector<ContentProvider::ExchangeResult>> got_e;
  std::vector<std::string> commit_order;
  streaming.cp.StreamRedeemBatch(std::move(ff.redeem1), [&](auto out) {
    commit_order.push_back("r1");
    got_r1 = std::move(out);
  });
  streaming.cp.StreamPurchaseBatch(std::move(ff.purchase), [&](auto out) {
    commit_order.push_back("p");
    got_p = std::move(out);
  });
  streaming.cp.StreamExchangeBatch(std::move(ff.exchange), [&](auto out) {
    commit_order.push_back("e");
    got_e = std::move(out);
  });
  streaming.cp.StreamRedeemBatch(std::move(ff.redeem2), [&](auto out) {
    commit_order.push_back("r2");
    got_r2 = std::move(out);
  });
  // A 2-batch window with four submissions means the first two batches
  // committed while later ones were streaming in — real overlap, not a
  // disguised serial run.
  EXPECT_EQ(streaming.cp.StreamingInFlight(), 2u);
  ASSERT_TRUE(got_r1.has_value());
  ASSERT_TRUE(got_p.has_value());
  EXPECT_FALSE(got_e.has_value());

  streaming.cp.FlushStreaming();
  EXPECT_EQ(streaming.cp.StreamingInFlight(), 0u);
  ASSERT_TRUE(got_e.has_value());
  ASSERT_TRUE(got_r2.has_value());
  EXPECT_EQ(commit_order,
            (std::vector<std::string>{"r1", "p", "e", "r2"}));

  ASSERT_EQ(got_r1->size(), out_r1.size());
  for (std::size_t i = 0; i < out_r1.size(); ++i) {
    EXPECT_EQ((*got_r1)[i].status, out_r1[i].status) << "redeem1 " << i;
    EXPECT_EQ((*got_r1)[i].license.Serialize(), out_r1[i].license.Serialize())
        << "redeem1 " << i;
  }
  EXPECT_EQ((*got_r1)[3].status, Status::kAlreadySpent);
  ASSERT_EQ(got_p->size(), out_p.size());
  for (std::size_t i = 0; i < out_p.size(); ++i) {
    EXPECT_EQ((*got_p)[i].status, out_p[i].status) << "purchase " << i;
    EXPECT_EQ((*got_p)[i].license.Serialize(), out_p[i].license.Serialize())
        << "purchase " << i;
  }
  ASSERT_EQ(got_e->size(), out_e.size());
  for (std::size_t i = 0; i < out_e.size(); ++i) {
    EXPECT_EQ((*got_e)[i].status, out_e[i].status) << "exchange " << i;
    EXPECT_EQ((*got_e)[i].anonymous_license.Serialize(),
              out_e[i].anonymous_license.Serialize())
        << "exchange " << i;
  }
  ASSERT_EQ(got_r2->size(), out_r2.size());
  for (std::size_t i = 0; i < out_r2.size(); ++i) {
    EXPECT_EQ((*got_r2)[i].status, out_r2[i].status) << "redeem2 " << i;
    EXPECT_EQ((*got_r2)[i].license.Serialize(), out_r2[i].license.Serialize())
        << "redeem2 " << i;
  }
  EXPECT_EQ(serial.cp.LicensesIssued(), streaming.cp.LicensesIssued());
}

// -- shed at mutate leaves no trace while other batches are in flight --------

TEST(StreamingPipeline, ShedAtMutateLeavesNoTraceUnderOverlap) {
  // One shard with a one-item queue; 2-signer pool, window of 4 so a
  // healthy batch stays in flight while the next one is shed.
  Stack stack("streaming-shed", 1, 512, /*queue_capacity=*/1,
              /*signer_pool_size=*/2, /*max_batches_in_flight=*/4);
  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> ok_items, shed_items;
  for (int i = 0; i < 2; ++i) {
    ok_items.push_back({stack.NewBearer(giver), taker->cert});
    shed_items.push_back({stack.NewBearer(giver), taker->cert});
  }

  std::optional<std::vector<ContentProvider::PurchaseResult>> got_ok, got_shed;
  stack.cp.StreamRedeemBatch(ok_items,
                             [&](auto out) { got_ok = std::move(out); });
  EXPECT_EQ(stack.cp.StreamingInFlight(), 1u);
  // The healthy batch's spends are already recorded (mutate runs inline
  // at Stream time); its licenses are still being signed.
  std::size_t spent_before = stack.cp.SpentSetSize();
  std::uint64_t issued_before = stack.cp.LicensesIssued();

  // Park the only spend shard: every mutate submission is now shed.
  server::ServerRuntime* rt = stack.cp.Runtime();
  ASSERT_NE(rt, nullptr);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  rt->Submit(0, [gate](server::ShardContext&) { gate.wait(); });

  stack.cp.StreamRedeemBatch(shed_items,
                             [&](auto out) { got_shed = std::move(out); });
  release.set_value();
  rt->Drain();
  stack.cp.FlushStreaming();

  ASSERT_TRUE(got_ok.has_value());
  ASSERT_TRUE(got_shed.has_value());
  for (const auto& r : *got_ok) EXPECT_EQ(r.status, Status::kOk);
  // Typed shed status, no spend recorded, nothing signed for the shed
  // batch — only the healthy batch's licenses were issued.
  for (const auto& r : *got_shed) EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_EQ(stack.cp.SpentSetSize(), spent_before);
  EXPECT_EQ(stack.cp.LicensesIssued(), issued_before + ok_items.size());

  // No trace means the identical retry succeeds once the queue has room.
  auto retried = stack.cp.RedeemAnonymousBatch(shed_items);
  for (const auto& r : retried) EXPECT_EQ(r.status, Status::kOk);
}

// -- streamed deposits: deferred credit, submission-ordered resolution -------

TEST(StreamingDeposits, BitIdenticalToSerialBatchesWithDeferredCredit) {
  Stack serial("streaming-deposit", 0);
  Stack streaming("streaming-deposit", 0);

  auto fixtures = [](Stack& s) {
    struct F {
      std::vector<PaymentProvider::DepositItem> batch1, batch2;
    } f;
    for (const Coin& c : s.Pay(30)) f.batch1.push_back({c, Stack::kAccount});
    for (const Coin& c : s.Pay(30)) f.batch2.push_back({c, Stack::kAccount});
    // Cross-batch double spend: batch2 re-deposits batch1's first coin.
    // Resolution must stay submission-ordered even though the account
    // credits are deferred to the flush.
    f.batch2.push_back(f.batch1[0]);
    return f;
  };
  auto fs = fixtures(serial);
  auto ff = fixtures(streaming);

  auto out1 = serial.bank.DepositBatch(fs.batch1);
  auto out2 = serial.bank.DepositBatch(fs.batch2);
  std::uint64_t serial_balance = serial.bank.Balance(Stack::kAccount);

  std::uint64_t balance_before = streaming.bank.Balance(Stack::kAccount);
  std::optional<std::vector<Status>> got1, got2;
  streaming.bank.StreamDepositBatch(ff.batch1,
                                    [&](auto out) { got1 = std::move(out); });
  streaming.bank.StreamDepositBatch(ff.batch2,
                                    [&](auto out) { got2 = std::move(out); });
  EXPECT_EQ(streaming.bank.StreamingDepositsInFlight(), 2u);
  // Both batches' serials are burned (mutate ran inline) but no account
  // has been credited yet: the commit tail is the deferred part.
  EXPECT_EQ(streaming.bank.Balance(Stack::kAccount), balance_before);

  streaming.bank.FlushDeposits();
  EXPECT_EQ(streaming.bank.StreamingDepositsInFlight(), 0u);
  ASSERT_TRUE(got1.has_value());
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(*got1, out1);
  EXPECT_EQ(*got2, out2);
  EXPECT_NE(got2->back(), Status::kOk);  // the cross-batch double spend
  EXPECT_EQ(streaming.bank.Balance(Stack::kAccount), serial_balance);
}

// -- injected tick pins the streaming window's makespan ----------------------

TEST(StreamingPipeline, InjectedTickPinsStreamingMakespan) {
  // No shards, no pool: the streamed batch runs its stages inline, so
  // the deterministic tick source pins every number. Each stage spans
  // one 7us tick (6 samples inside Submit) and the flush takes the 7th
  // sample, so the window makespan is exactly 42us.
  Stack stack("streaming-timings", /*redeem_shards=*/0, 512);
  std::uint64_t tick = 0;
  stack.cp.set_time_source([&tick]() {
    tick += 7;
    return tick;
  });

  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> items;
  items.push_back({stack.NewBearer(giver), taker->cert});
  items.push_back({stack.NewBearer(giver), taker->cert});

  std::optional<std::vector<ContentProvider::PurchaseResult>> got;
  stack.cp.StreamRedeemBatch(std::move(items),
                             [&](auto out) { got = std::move(out); });
  auto timings = stack.cp.FlushStreaming();
  ASSERT_TRUE(got.has_value());
  for (const auto& r : *got) ASSERT_EQ(r.status, Status::kOk);

  EXPECT_EQ(timings.items, 2u);
  EXPECT_EQ(timings.verify_us, 7.0);
  EXPECT_EQ(timings.spend_us, 7.0);
  EXPECT_EQ(timings.issue_us, 7.0);
  EXPECT_EQ(timings.makespan_us, 42.0);
  // FlushStreaming also refreshes LastBatchTimings.
  EXPECT_EQ(stack.cp.LastBatchTimings().makespan_us, 42.0);
}

// -- a sync call closes the window on its own batch --------------------------

TEST(StreamingPipeline, SyncCallCommitsInFlightBatchesFirst) {
  // Same seed, same batches. The serial stack makes every call
  // synchronously; the mixed stack streams the first two (pooled, window
  // of 4, so neither commits on its own) and then makes a synchronous
  // call, which must commit them first, in submit order.
  Stack serial("streaming-sync-after-stream", 2);
  Stack mixed("streaming-sync-after-stream", 2, 512, 4096,
              /*signer_pool_size=*/2, /*max_batches_in_flight=*/4);

  auto fixtures = [](Stack& s) {
    struct F {
      std::vector<ContentProvider::RedeemItem> redeem1, redeem2;
      std::vector<ContentProvider::PurchaseItem> purchase;
      std::vector<PaymentProvider::DepositItem> deposit1, deposit2;
    } f;
    Pseudonym* giver = s.NewPseudonym();
    Pseudonym* taker = s.NewPseudonym();
    for (int i = 0; i < 3; ++i) {
      f.redeem1.push_back({s.NewBearer(giver), taker->cert});
      f.redeem2.push_back({s.NewBearer(giver), taker->cert});
    }
    f.purchase.push_back({taker->cert, s.content, s.Pay(30)});
    for (const Coin& c : s.Pay(30)) f.deposit1.push_back({c, Stack::kAccount});
    for (const Coin& c : s.Pay(30)) f.deposit2.push_back({c, Stack::kAccount});
    f.deposit2.push_back(f.deposit1[0]);  // cross-batch double spend
    return f;
  };
  auto fs = fixtures(serial);
  auto fm = fixtures(mixed);

  auto out_r1 = serial.cp.RedeemAnonymousBatch(fs.redeem1);
  auto out_p = serial.cp.PurchaseBatch(fs.purchase);
  auto out_r2 = serial.cp.RedeemAnonymousBatch(fs.redeem2);
  auto out_d1 = serial.bank.DepositBatch(fs.deposit1);
  auto out_d2 = serial.bank.DepositBatch(fs.deposit2);

  std::vector<std::string> order;
  std::optional<std::vector<ContentProvider::PurchaseResult>> got_r1, got_p;
  mixed.cp.StreamRedeemBatch(std::move(fm.redeem1), [&](auto out) {
    order.push_back("r1");
    got_r1 = std::move(out);
  });
  mixed.cp.StreamPurchaseBatch(std::move(fm.purchase), [&](auto out) {
    order.push_back("p");
    got_p = std::move(out);
  });
  EXPECT_EQ(mixed.cp.StreamingInFlight(), 2u);
  auto got_r2 = mixed.cp.RedeemAnonymousBatch(fm.redeem2);
  order.push_back("r2");
  EXPECT_EQ(order, (std::vector<std::string>{"r1", "p", "r2"}));
  EXPECT_EQ(mixed.cp.StreamingInFlight(), 0u);
  // The sync call's timings are its own batch's.
  EXPECT_EQ(mixed.cp.LastBatchTimings().items, fm.redeem2.size());

  auto same = [](const std::vector<ContentProvider::PurchaseResult>& a,
                 const std::vector<ContentProvider::PurchaseResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status, b[i].status) << "item " << i;
      EXPECT_EQ(a[i].status, Status::kOk) << "item " << i;
      EXPECT_EQ(a[i].license.Serialize(), b[i].license.Serialize())
          << "item " << i;
    }
  };
  ASSERT_TRUE(got_r1.has_value());
  ASSERT_TRUE(got_p.has_value());
  same(*got_r1, out_r1);
  same(*got_p, out_p);
  same(got_r2, out_r2);
  EXPECT_EQ(serial.cp.LicensesIssued(), mixed.cp.LicensesIssued());

  // Same rule at the bank: the sync deposit commits the streamed one
  // first, so its credit lands and the double spend resolves in order.
  std::optional<std::vector<Status>> got_d1;
  mixed.bank.StreamDepositBatch(fm.deposit1,
                                [&](auto out) { got_d1 = std::move(out); });
  auto got_d2 = mixed.bank.DepositBatch(fm.deposit2);
  ASSERT_TRUE(got_d1.has_value());
  EXPECT_EQ(mixed.bank.StreamingDepositsInFlight(), 0u);
  EXPECT_EQ(*got_d1, out_d1);
  EXPECT_EQ(got_d2, out_d2);
  EXPECT_EQ(got_d2.back(), Status::kDoubleSpend);
  EXPECT_EQ(mixed.bank.Balance(Stack::kAccount),
            serial.bank.Balance(Stack::kAccount));
}

TEST(StreamingPipeline, ResultsCallbackMayMakeASyncCall) {
  // A sync call commits whatever is in flight; made from inside a
  // streamed batch's on_done it must not commit that batch again.
  Stack stack("streaming-reentrant", 1, 512, 4096, /*signer_pool_size=*/2);
  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> first, second;
  first.push_back({stack.NewBearer(giver), taker->cert});
  second.push_back({stack.NewBearer(giver), taker->cert});

  const std::uint64_t issued_before = stack.cp.LicensesIssued();
  int first_done = 0;
  std::vector<ContentProvider::PurchaseResult> nested;
  stack.cp.StreamRedeemBatch(first, [&](auto out) {
    ++first_done;
    EXPECT_EQ(out[0].status, Status::kOk);
    nested = stack.cp.RedeemAnonymousBatch(second);
  });
  stack.cp.FlushStreaming();
  EXPECT_EQ(first_done, 1);
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].status, Status::kOk);
  EXPECT_EQ(stack.cp.LicensesIssued(), issued_before + 2);
  EXPECT_EQ(stack.cp.StreamingInFlight(), 0u);
}

// -- an empty batch never enters the pipeline --------------------------------

TEST(StreamingPipeline, EmptyBatchIsTheSameNoOpOnEveryEntryPoint) {
  // Window of one: an empty batch that took a slot would force the
  // in-flight batch to commit.
  Stack stack("streaming-empty", 1, 512, 4096, /*signer_pool_size=*/2,
              /*max_batches_in_flight=*/1);
  Pseudonym* giver = stack.NewPseudonym();
  Pseudonym* taker = stack.NewPseudonym();
  std::vector<ContentProvider::RedeemItem> items;
  items.push_back({stack.NewBearer(giver), taker->cert});
  std::vector<PaymentProvider::DepositItem> coins;
  for (const Coin& c : stack.Pay(30)) coins.push_back({c, Stack::kAccount});

  int redeem_done = 0, deposit_done = 0;
  stack.cp.StreamRedeemBatch(items, [&](auto) { ++redeem_done; });
  stack.bank.StreamDepositBatch(coins, [&](auto) { ++deposit_done; });
  ASSERT_EQ(stack.cp.StreamingInFlight(), 1u);
  ASSERT_EQ(stack.bank.StreamingDepositsInFlight(), 1u);

  // Streamed: on_done({}) at once, no slot taken, nothing committed.
  int empty_done = 0;
  auto expect_empty = [&](const auto& out) {
    EXPECT_TRUE(out.empty());
    ++empty_done;
  };
  stack.cp.StreamRedeemBatch({}, expect_empty);
  stack.cp.StreamPurchaseBatch({}, expect_empty);
  stack.cp.StreamExchangeBatch({}, expect_empty);
  stack.bank.StreamDepositBatch({}, expect_empty);
  EXPECT_EQ(empty_done, 4);
  // Synchronous: an empty result, and again nothing committed.
  EXPECT_TRUE(stack.cp.RedeemAnonymousBatch({}).empty());
  EXPECT_TRUE(stack.cp.PurchaseBatch({}).empty());
  EXPECT_TRUE(stack.cp.ExchangeBatch({}).empty());
  EXPECT_TRUE(stack.bank.DepositBatch({}).empty());
  EXPECT_EQ(stack.cp.StreamingInFlight(), 1u);
  EXPECT_EQ(stack.bank.StreamingDepositsInFlight(), 1u);
  EXPECT_EQ(redeem_done, 0);
  EXPECT_EQ(deposit_done, 0);

  stack.cp.FlushStreaming();
  stack.bank.FlushDeposits();
  EXPECT_EQ(redeem_done, 1);
  EXPECT_EQ(deposit_done, 1);
}

// -- destruction with batches in flight ---------------------------------------

TEST(StreamingPipeline, DestroyingProvidersCommitsInFlightBatchesOnce) {
  // Destroying a provider must drain its pipeline before the members
  // the commit tails write (transcript map, counters, accounts) die.
  // Under AddressSanitizer a late drain is a heap-use-after-free.
  auto stack = std::make_unique<Stack>("streaming-destroy", 1, 512, 4096,
                                       /*signer_pool_size=*/2);
  Pseudonym* giver = stack->NewPseudonym();
  Pseudonym* taker = stack->NewPseudonym();
  std::vector<ContentProvider::RedeemItem> items;
  for (int i = 0; i < 3; ++i) {
    items.push_back({stack->NewBearer(giver), taker->cert});
  }
  std::vector<PaymentProvider::DepositItem> coins;
  for (const Coin& c : stack->Pay(30)) coins.push_back({c, Stack::kAccount});

  int redeem_calls = 0, deposit_calls = 0;
  std::vector<ContentProvider::PurchaseResult> redeemed;
  std::vector<Status> deposited;
  stack->cp.StreamRedeemBatch(std::move(items), [&](auto out) {
    ++redeem_calls;
    redeemed = std::move(out);
  });
  stack->bank.StreamDepositBatch(std::move(coins), [&](auto out) {
    ++deposit_calls;
    deposited = std::move(out);
  });
  ASSERT_EQ(redeem_calls, 0);
  ASSERT_EQ(deposit_calls, 0);

  stack.reset();  // no FlushStreaming / FlushDeposits

  EXPECT_EQ(redeem_calls, 1);
  ASSERT_EQ(redeemed.size(), 3u);
  for (const auto& r : redeemed) EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(deposit_calls, 1);
  ASSERT_FALSE(deposited.empty());
  for (Status s : deposited) EXPECT_EQ(s, Status::kOk);
}

}  // namespace
}  // namespace core
}  // namespace p2drm
