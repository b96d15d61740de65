// RF-6: End-to-end store simulation — P2DRM vs baseline under a Zipf
// retail workload.
//
// Drives a population of users buying, playing and occasionally
// transferring Zipf-popular content through the full wire protocol, and
// prints sustained operation rates, provider-side crypto-op shares, wire
// traffic, and the resulting privacy ledgers of both systems.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/identified_drm.h"
#include "core/agent.h"
#include "core/metrics.h"
#include "core/system.h"
#include "crypto/drbg.h"
#include "obs/export.h"
#include "sim/bench_report.h"
#include "sim/linkability.h"
#include "sim/stats.h"
#include "sim/zipf.h"

namespace {

using namespace p2drm;        // NOLINT
using namespace p2drm::core;  // NOLINT
using WallClock = std::chrono::steady_clock;

constexpr std::size_t kBits = 512;
constexpr std::size_t kUsers = 12;
constexpr std::size_t kCatalog = 50;
constexpr std::size_t kOpsPerUser = 8;
constexpr double kZipfAlpha = 1.0;

double Seconds(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main() {
  crypto::HmacDrbg rng("end-to-end");

  std::printf("RF-6: end-to-end store simulation (%zu users, %zu titles, "
              "%zu ops/user, Zipf %.1f, %zu-bit keys)\n",
              kUsers, kCatalog, kOpsPerUser, kZipfAlpha, kBits);
  std::printf("%s\n", std::string(90, '-').c_str());

  // ---- P2DRM -----------------------------------------------------------
  SystemConfig cfg;
  cfg.ca_key_bits = kBits;
  cfg.ttp_key_bits = kBits;
  cfg.bank_key_bits = kBits;
  cfg.cp.signing_key_bits = kBits;
  // Batch-first server defaults: spends on 4 shards, purchase/redeem/
  // exchange issuance on a 4-worker signer pool, coin double-spend
  // checks sharded at the bank.
  cfg.cp.redeem_shards = 4;
  cfg.cp.signer_pool_size = 4;
  cfg.bank.deposit_shards = 2;
  cfg.latency.per_message_us = 20'000;  // 20 ms WAN round-trip halves
  cfg.latency.per_kib_us = 100;
  P2drmSystem system(cfg, &rng);

  std::vector<rel::ContentId> catalog;
  for (std::size_t i = 0; i < kCatalog; ++i) {
    catalog.push_back(system.cp().Publish(
        "title-" + std::to_string(i), std::vector<std::uint8_t>(2048, 0x5a),
        1 + i % 20, rel::Rights::FullRetail()));
  }
  sim::ZipfGenerator zipf(kCatalog, kZipfAlpha);

  AgentConfig acfg;
  acfg.pseudonym_bits = kBits;
  acfg.pseudonym_max_uses = 1;  // paper policy: fresh pseudonym per buy
  acfg.initial_bank_balance = 1ull << 30;
  std::vector<std::unique_ptr<UserAgent>> agents;
  for (std::size_t u = 0; u < kUsers; ++u) {
    agents.push_back(std::make_unique<UserAgent>(
        "user-" + std::to_string(u), acfg, &system, &rng));
  }

  system.transport().ResetStats();
  OpCounters ops_before = AggregateOps();
  sim::LatencyStats purchase_lat;
  std::vector<sim::Observation> p2drm_obs;
  std::size_t purchases = 0, plays = 0, transfers = 0;

  auto t0 = WallClock::now();
  for (std::size_t round = 0; round < kOpsPerUser; ++round) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      rel::ContentId c = catalog[zipf.Next(&rng)];
      auto p0 = WallClock::now();
      // Batched paths throughout (the system's defaults since the
      // generic batch pipeline): purchases, exchanges and redemptions
      // all ride the kBatch envelope and the server-side fast paths,
      // including the batched coin deposit at the bank.
      std::vector<rel::License> lics;
      if (agents[u]->BuyContentBatch({c}, &lics)[0] == Status::kOk) {
        purchase_lat.Add(Seconds(p0, WallClock::now()) * 1e6);
        ++purchases;
        rel::License lic = lics[0];
        p2drm_obs.push_back(
            {u, "pseudonym-" +
                    std::string(lic.bound_key.begin(), lic.bound_key.begin() + 8)});
        if (agents[u]->Play(c).decision == rel::Decision::kAllow) ++plays;
        // Every 4th purchase is given away to a neighbour.
        if (purchases % 4 == 0) {
          std::vector<std::vector<std::uint8_t>> bearers;
          if (agents[u]->GiveLicenseBatch({lic.id}, &bearers)[0] ==
                  Status::kOk &&
              agents[(u + 1) % kUsers]->ReceiveLicenseBatch(
                  {bearers[0]})[0] == Status::kOk) {
            ++transfers;
          }
        }
      }
    }
  }
  double p2drm_wall = Seconds(t0, WallClock::now());
  OpCounters p2drm_ops = AggregateOps() - ops_before;
  auto p2drm_traffic = system.transport().GrandTotal();

  std::printf("\n[p2drm]    %zu purchases, %zu plays, %zu transfers in %.2f s "
              "(%.1f ops/s CPU)\n",
              purchases, plays, transfers, p2drm_wall,
              (purchases + plays + transfers) / p2drm_wall);
  std::printf("[p2drm]    purchase latency: %s\n",
              purchase_lat.Summary().c_str());
  std::printf("[p2drm]    wire: %llu msgs, %.1f KiB; simulated WAN time "
              "%.1f s\n",
              static_cast<unsigned long long>(p2drm_traffic.messages),
              p2drm_traffic.bytes / 1024.0,
              system.transport().SimulatedTimeUs() / 1e6);
  std::printf("[p2drm]    provider crypto: %s\n",
              p2drm_ops.ToString().c_str());
  auto p2drm_link = sim::AnalyzeLinkability(p2drm_obs);
  std::printf("[p2drm]    linking attack: linkability=%.4f, largest "
              "profile=%zu of %zu purchases\n",
              p2drm_link.linkability, p2drm_link.largest_profile, purchases);

  // ---- baseline ---------------------------------------------------------
  crypto::HmacDrbg brng("end-to-end-baseline");
  SimClock clock;
  PaymentProvider bank(kBits, &brng);
  baseline::IdentifiedDrm base(kBits, &brng, &clock, &bank);
  std::vector<rel::ContentId> bcatalog;
  for (std::size_t i = 0; i < kCatalog; ++i) {
    bcatalog.push_back(base.Publish(
        "title-" + std::to_string(i), std::vector<std::uint8_t>(2048, 0x5a),
        1 + i % 20, rel::Rights::FullRetail()));
  }
  for (std::size_t u = 0; u < kUsers; ++u) {
    std::string account = "user-" + std::to_string(u);
    bank.OpenAccount(account, 1ull << 30);
    base.RegisterAccount(account);
  }

  ops_before = AggregateOps();
  std::vector<sim::Observation> base_obs;
  std::size_t bpurchases = 0, bplays = 0, btransfers = 0;
  t0 = WallClock::now();
  for (std::size_t round = 0; round < kOpsPerUser; ++round) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      std::string account = "user-" + std::to_string(u);
      rel::ContentId c = bcatalog[zipf.Next(&rng)];
      auto r = base.Purchase(account, c);
      if (r.status == Status::kOk) {
        ++bpurchases;
        base_obs.push_back({u, account});
        std::array<std::uint8_t, 32> key;
        if (base.AuthorizePlay(account, r.license.id, &key) == Status::kOk) {
          ++bplays;
        }
        if (bpurchases % 4 == 0 &&
            base.Transfer(account, "user-" + std::to_string((u + 1) % kUsers),
                          r.license.id)
                    .status == Status::kOk) {
          ++btransfers;
        }
      }
    }
  }
  double base_wall = Seconds(t0, WallClock::now());
  OpCounters base_ops = AggregateOps() - ops_before;

  std::printf("\n[baseline] %zu purchases, %zu plays, %zu transfers in "
              "%.2f s (%.1f ops/s CPU)\n",
              bpurchases, bplays, btransfers, base_wall,
              (bpurchases + bplays + btransfers) / base_wall);
  std::printf("[baseline] provider crypto: %s\n", base_ops.ToString().c_str());
  auto base_link = sim::AnalyzeLinkability(base_obs);
  std::printf("[baseline] linking attack: linkability=%.4f, largest "
              "profile=%zu; identified activity rows=%zu; bank debit "
              "rows=%zu\n",
              base_link.linkability, base_link.largest_profile,
              base.ProfileEntries(), bank.DebitLog().size());

  std::printf("\nExpected shape: baseline is ~%0.0fx faster on raw CPU "
              "(no blind/pseudonym crypto),\nbut fully linkable "
              "(linkability 1.0 vs %.4f) and accumulates an identified "
              "profile row per op.\n",
              p2drm_wall / (base_wall > 0 ? base_wall : 1e-9),
              p2drm_link.linkability);

  sim::BenchReport report("bench_end_to_end");
  report.ConfigMetric("users", static_cast<double>(kUsers));
  report.ConfigMetric("catalog", static_cast<double>(kCatalog));
  report.ConfigMetric("ops_per_user", static_cast<double>(kOpsPerUser));
  report.ConfigMetric("zipf_alpha", kZipfAlpha);
  report.ConfigMetric("key_bits", static_cast<double>(kBits));
  report.ConfigMetric("redeem_shards", static_cast<double>(cfg.cp.redeem_shards));
  report.ConfigMetric("signer_pool_size",
                      static_cast<double>(cfg.cp.signer_pool_size));
  report.ConfigMetric("deposit_shards",
                      static_cast<double>(cfg.bank.deposit_shards));
  report.ConfigNote("seed", "end-to-end");
  report.Metric("p2drm.ops_per_sec",
                (purchases + plays + transfers) / p2drm_wall);
  report.Metric("p2drm.purchase_p50_us", purchase_lat.Percentile(50));
  report.Metric("p2drm.purchase_p99_us", purchase_lat.Percentile(99));
  report.Metric("p2drm.wire_messages",
                static_cast<double>(p2drm_traffic.messages));
  report.Metric("p2drm.linkability", p2drm_link.linkability);
  report.Metric("baseline.ops_per_sec",
                (bpurchases + bplays + btransfers) / base_wall);
  report.Metric("baseline.linkability", base_link.linkability);
  // The RT-2 op table, uniform across benches: process totals as ops.*
  // plus the per-phase deltas the console prints.
  obs::AppendOpCounters(&report);
  report.MetricsNote("ops.p2drm_phase", p2drm_ops.ToString());
  report.MetricsNote("ops.baseline_phase", base_ops.ToString());
  report.WriteJsonFile();
  return 0;
}
