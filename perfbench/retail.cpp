// retail: the paper's consumer policy, one item at a time.
//
// A fresh pseudonym for every purchase and every redeem
// (pseudonym_max_uses = 1), a Zipf(1.0) catalog, 512-bit pseudonyms and
// 1024-bit server keys. Each step buys one title, plays it, and every 4th
// license is given to the next user (exchange for a bearer license, then
// the neighbour redeems it). Smartcard key generation, blind issuance and
// bignum dominate; the spent set stays tiny and every batch has one item,
// so the flat table and batch amortisation are bypassed.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/linkability.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

using namespace p2drm;  // NOLINT

namespace {

constexpr const char* kSetupSeed = "perfbench/retail/setup";
constexpr std::size_t kUsers = 16;
constexpr std::size_t kCatalog = 256;
/// Purchases per requested second of run time (work, not a time limit).
constexpr int kPurchasesPerSecond = 110;
constexpr std::size_t kGiveEvery = 4;
/// Threads move to the next placement every kMoveEvery purchases, between
/// timed ops.
constexpr std::size_t kMoveEvery = 16;

std::string Credential(const rel::License& license) {
  return std::string(license.bound_key.begin(), license.bound_key.end());
}

class Retail : public StackWorkload {
 public:
  using StackWorkload::StackWorkload;

  void Report(Result* result) override {
    result->EndToEnd("redeem_mean_ms", redeem_.Mean(), "ms");
    result->EndToEnd("redeem_p90_ms", redeem_.Percentile(90), "ms");
    result->Report("redeem_p50_ms", redeem_.Percentile(50), "ms");
    result->Report("purchase_p50_ms", purchase_.Percentile(50), "ms");
    result->Report("purchase_p90_ms", purchase_.Percentile(90), "ms");
    result->Report("exchange_p50_ms", exchange_.Percentile(50), "ms");
    result->Report("play_p50_ms", play_.Percentile(50), "ms");
    result->Report("purchases", static_cast<double>(purchase_.Count()), "count");
    result->Report("plays", static_cast<double>(play_.Count()), "count");
    result->Report("exchanges", static_cast<double>(exchange_.Count()), "count");
    result->Report("redeems", static_cast<double>(redeem_.Count()), "count");
    result->Report("linkability", linkability_, "ratio");
  }

 protected:
  double Loop(Stack& stack, Result* result) override {
    obs::Tracer* tracer = stack.tracer();
    const std::size_t purchases =
        kGiveEvery * std::max<std::size_t>(1, options_.seconds * kPurchasesPerSecond / kGiveEvery);
    std::vector<sim::Observation> seen;  // what the CP saw, per true user
    std::uint64_t op = 0;
    double ops = 0;
    auto time_ms = [](SteadyClock::time_point t0) { return SecondsSince(t0) * 1e3; };

    for (std::size_t i = 0; i < purchases; ++i) {
      if (i > 0 && i % kMoveEvery == 0) RotatePlacement();
      const std::size_t u = i % kUsers;
      core::UserAgent& buyer = stack.agent(u);
      const rel::ContentId content = stack.DrawContent();

      std::vector<rel::License> bought;
      std::vector<core::Status> status;
      stack.set_current_op(++op);
      auto t0 = SteadyClock::now();
      {
        OpSpan span(tracer, "agent.purchase", op);
        {
          OpSpan pseudonym(tracer, "agent.pseudonym", op);
          buyer.EnsurePseudonym();
        }
        status = buyer.BuyContentBatch({content}, &bought);
      }
      purchase_.Add(time_ms(t0));
      ++ops;
      result->CountOp(status[0] != core::Status::kOk);
      if (status[0] != core::Status::kOk) continue;
      seen.push_back({u, Credential(bought[0])});

      stack.set_current_op(++op);
      t0 = SteadyClock::now();
      core::UseResult played;
      {
        OpSpan span(tracer, "agent.play", op);
        played = buyer.Play(content);
      }
      play_.Add(time_ms(t0));
      ++ops;
      result->CountOp(played.decision != rel::Decision::kAllow);

      if (i % kGiveEvery != kGiveEvery - 1) continue;
      std::vector<std::vector<std::uint8_t>> bearer;
      stack.set_current_op(++op);
      t0 = SteadyClock::now();
      {
        OpSpan span(tracer, "agent.exchange", op);
        status = buyer.GiveLicenseBatch({bought[0].id}, &bearer);
      }
      exchange_.Add(time_ms(t0));
      ++ops;
      result->CountOp(status[0] != core::Status::kOk);
      if (status[0] != core::Status::kOk) continue;

      const std::size_t v = (u + 1) % kUsers;
      core::UserAgent& taker = stack.agent(v);
      std::vector<rel::License> received;
      stack.set_current_op(++op);
      t0 = SteadyClock::now();
      {
        OpSpan span(tracer, "agent.redeem", op);
        {
          OpSpan pseudonym(tracer, "agent.pseudonym", op);
          taker.EnsurePseudonym();
        }
        status = taker.ReceiveLicenseBatch({bearer[0]}, &received);
      }
      redeem_.Add(time_ms(t0));
      ++ops;
      result->CountOp(status[0] != core::Status::kOk);
      if (status[0] == core::Status::kOk) seen.push_back({v, Credential(received[0])});
    }

    // The paper's privacy property: the CP cannot link any two operations
    // of one user, because no pseudonym is ever shown twice.
    const sim::LinkabilityReport link = sim::AnalyzeLinkability(seen);
    linkability_ = link.linkability;
    result->Check(link.same_user_pairs > 0 && link.linkable_pairs == 0,
                  "retail: CP-side pseudonym linkability is exactly 0");
    result->Check(link.distinct_credentials == seen.size(),
                  "retail: every purchase and redeem shows a fresh pseudonym");
    return ops;
  }

 private:
  Samples purchase_, play_, exchange_, redeem_;
  double linkability_ = 1.0;
};

}  // namespace

void RunRetail(const Options& options, Result* result) {
  StackConfig config;
  config.setup_seed = kSetupSeed;
  config.users = kUsers;
  config.catalog_size = kCatalog;
  config.pseudonym_max_uses = 1;
  RunWorkload(options, [&] { return std::make_unique<Retail>(options, config); },
              result);
}

}  // namespace perfbench
