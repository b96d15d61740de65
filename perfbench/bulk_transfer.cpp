// bulk_transfer: a provider under batched load.
//
// A few agents reuse pseudonyms minted at set-up and cycle
// BuyContentBatch(64) -> GiveLicenseBatch(64) -> the next agent's
// ReceiveLicenseBatch(64). One in 16 submitted bearer licenses is a
// replay of an earlier one and must come back kAlreadySpent. The CP's
// spent set is preloaded with 2^20 historic ids (beyond L2, inside L3)
// and journaled. The server pipeline (screened batch verify, spend,
// pooled issue, commit), the bank and the kBatch codec do the work;
// pseudonym key generation does almost none.

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "stack.h"
#include "workloads.h"

namespace perfbench {

using namespace p2drm;  // NOLINT

namespace {

constexpr const char* kSetupSeed = "perfbench/bulk_transfer/setup";
constexpr std::size_t kAgents = 3;
constexpr std::size_t kCatalog = 256;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPreloadSpent = std::size_t{1} << 20;
/// One submitted bearer in kReplayEvery is a replay: a replay follows
/// every kReplayEvery - 1 fresh bearers.
constexpr std::size_t kReplayEvery = 16;
/// Cycles come in blocks of kReplayEvery - 1, so the fresh bearers plus
/// their replays fill whole 64-item redeem batches: 15 cycles of 64 fresh
/// + 64 replays = 16 batches.
constexpr std::size_t kCycleBlock = kReplayEvery - 1;
/// Cycle blocks per requested second of run time.
constexpr double kBlocksPerSecond = 0.6;
/// Threads move to the next placement every kMoveEvery cycles, between
/// timed calls.
constexpr std::size_t kMoveEvery = 1;

struct Submitted {
  std::size_t bearer = 0;  ///< index into the fresh-bearer list
  bool replay = false;
};

class BulkTransfer : public StackWorkload {
 public:
  using StackWorkload::StackWorkload;

  void Report(Result* result) override {
    result->EndToEnd("redeem_mean_ms", redeem_.Mean(), "ms");
    result->EndToEnd("redeem_p90_ms", redeem_.Percentile(90), "ms");
    result->Report("redeem_p50_ms", redeem_.Percentile(50), "ms");
    result->Report("purchase_p50_ms", purchase_.Percentile(50), "ms");
    result->Report("purchase_p90_ms", purchase_.Percentile(90), "ms");
    result->Report("exchange_p50_ms", exchange_.Percentile(50), "ms");
    result->Report("purchase_calls", static_cast<double>(purchase_.Count()), "count");
    result->Report("redeem_calls", static_cast<double>(redeem_.Count()), "count");
    result->Report("replays", static_cast<double>(replays_), "count");
  }

 protected:
  double Loop(Stack& stack, Result* result) override {
    obs::Tracer* tracer = stack.tracer();
    const std::size_t cycles =
        kCycleBlock *
        std::max<std::size_t>(1, static_cast<std::size_t>(options_.seconds * kBlocksPerSecond + 0.5));
    std::vector<std::vector<std::uint8_t>> fresh;  // every bearer handed over
    std::deque<Submitted> stream;                  // bearers awaiting redeem
    std::uint64_t op = 0;
    double items = 0;
    std::uint64_t paid = 0;
    const std::uint64_t credit_before = stack.system().bank().Balance(kMerchantAccount);
    auto time_ms = [](SteadyClock::time_point t0) { return SecondsSince(t0) * 1e3; };

    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      if (cycle > 0 && cycle % kMoveEvery == 0) RotatePlacement();
      const std::size_t g = cycle % kAgents;
      core::UserAgent& giver = stack.agent(g);
      std::vector<rel::ContentId> contents(kBatch);
      for (rel::ContentId& c : contents) c = stack.DrawContent();

      std::vector<rel::License> bought;
      std::vector<core::Status> status;
      stack.set_current_op(++op);
      auto t0 = SteadyClock::now();
      {
        OpSpan span(tracer, "agent.purchase", op);
        {
          OpSpan pseudonym(tracer, "agent.pseudonym", op);
          giver.EnsurePseudonym();
        }
        status = giver.BuyContentBatch(contents, &bought);
      }
      purchase_.Add(time_ms(t0));
      std::vector<rel::LicenseId> ids;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const bool ok = status[k] == core::Status::kOk;
        result->CountOp(!ok);
        if (!ok) continue;
        paid += stack.PriceOf(contents[k]);
        ids.push_back(bought[k].id);
      }
      items += kBatch;

      std::vector<std::vector<std::uint8_t>> bearers;
      stack.set_current_op(++op);
      t0 = SteadyClock::now();
      {
        OpSpan span(tracer, "agent.exchange", op);
        status = giver.GiveLicenseBatch(ids, &bearers);
      }
      exchange_.Add(time_ms(t0));
      items += static_cast<double>(ids.size());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const bool ok = status[k] == core::Status::kOk;
        result->CountOp(!ok);
        if (!ok) continue;
        fresh.push_back(std::move(bearers[k]));
        stream.push_back({fresh.size() - 1, false});
        if (fresh.size() % (kReplayEvery - 1) == 0) {
          stream.push_back({stack.inputs().NextUint64(fresh.size()), true});
        }
      }

      core::UserAgent& taker = stack.agent((g + 1) % kAgents);
      while (stream.size() >= kBatch) {
        std::vector<Submitted> batch(stream.begin(), stream.begin() + kBatch);
        stream.erase(stream.begin(), stream.begin() + kBatch);
        std::vector<std::vector<std::uint8_t>> bytes;
        for (const Submitted& s : batch) bytes.push_back(fresh[s.bearer]);
        stack.set_current_op(++op);
        t0 = SteadyClock::now();
        {
          OpSpan span(tracer, "agent.redeem", op);
          {
            OpSpan pseudonym(tracer, "agent.pseudonym", op);
            taker.EnsurePseudonym();
          }
          status = taker.ReceiveLicenseBatch(bytes);
        }
        redeem_.Add(time_ms(t0));
        items += kBatch;
        for (std::size_t k = 0; k < kBatch; ++k) {
          const core::Status want =
              batch[k].replay ? core::Status::kAlreadySpent : core::Status::kOk;
          result->CountOp(status[k] != want);
          replays_ += batch[k].replay ? 1 : 0;
        }
      }
    }
    result->Check(stream.empty(), "bulk_transfer: every bearer was submitted");
    result->Check(stack.system().bank().Balance(kMerchantAccount) - credit_before == paid,
                  "bulk_transfer: merchant balance equals the prices paid");
    return items;
  }

 private:
  Samples purchase_, exchange_, redeem_;
  std::uint64_t replays_ = 0;
};

}  // namespace

void RunBulkTransfer(const Options& options, Result* result) {
  StackConfig config;
  config.setup_seed = kSetupSeed;
  config.users = kAgents;
  config.catalog_size = kCatalog;
  config.pseudonym_max_uses = std::uint64_t{1} << 40;
  config.mint_pseudonyms = true;
  config.preload_spent = kPreloadSpent;
  RunWorkload(options, [&] { return std::make_unique<BulkTransfer>(options, config); },
              result);
}

}  // namespace perfbench
