// Server-scaling bench: the sharded runtime and the amortized batch
// verifier (ISSUE 2 acceptance harness).
//
// Part A — shard scaling, a MODELED router-balance check. Drives >= 1M
// simulated redemptions through
// server::ServerRuntime at 1/2/4/8 shards. Each item really routes to its
// home shard, really inserts into that shard's SpentSetShard, and accrues
// a *measured* RSA-verify service time on the shard's simulated clock —
// the same simulated-time methodology the transport's LatencyModel uses
// for wire costs, so the reported throughput is hardware-independent and
// meaningful on single-core CI (where wall-clock parallel speedup is
// physically impossible). Arrivals are open-loop at 80% utilization per
// shard, so throughput scales with the shard count and p99 shows the
// queueing tail. The only real work per item is one hash insert, so the
// ">= 2x at 4 shards" gate measures how evenly the router spreads ids
// over shards, not measured parallel speedup; the wall= column is
// reported, ungated.
//
// Part B — batch verification. Builds real licenses and pseudonym
// certificates, then compares per-item verification (two full RSA
// verifies per redemption) against BatchVerifier's screened same-key
// check + certificate dedup + shared CRL pass. The headline number is
// full RSA verifications: 1 + (distinct certs) instead of 2 * items.
//
// Part C — backpressure. Blocks the workers, overfills a bounded queue,
// and counts the kOverloaded sheds.
//
// Part D — issuance pipeline. Drives real ContentProvider batch
// redemptions (4 spend shards) at 1/2/4/8 pooled signers and reports the
// per-stage wall timings (verify / spend / issue) plus issue-stage
// signatures per second. The signing work executes on the signer pool
// and its measured wall time accrues on each worker's sim clock, so the
// issue-stage makespan (slowest signer) and the sigs/s derived from it
// are meaningful even on single-core CI — the same simulated-time
// methodology Part A uses.
//
// Part E — exchange batch. Same methodology as Part D for
// ContentProvider::ExchangeBatch at 1/4 signers: the bearer issuance
// fans out to the signer pool, so 4-signer throughput must beat
// 1-signer by >= 1.5x.
//
// Part G — streaming cross-batch overlap. Streams
// several redemption batches through the staged pipeline backed by a
// dedicated 4-worker signer pool, so batch B+1's verify runs on the
// dispatch thread while batch B's signatures are still being issued on
// the pool. The gate uses the same simulated-time methodology as Parts
// A/D/E: each signing job's measured wall cost accrues on its signer's
// sim clock, and the schedule's makespan is max(dispatch busy, slowest
// signer's sim clock) — which overlap must pull under 0.85x the serial
// stage-time sum even on a single-core runner, where the wall clock
// cannot show parallel speedup. The wall-clock window span
// (PipelineTimings::makespan_us) is reported alongside, ungated.
//
// Output: console report + BENCH_bench_server_scaling.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "bignum/limbs.h"
#include "core/content_provider.h"
#include "core/metrics.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/provider_stack.h"
#include "server/batch_verifier.h"
#include "server/server_runtime.h"
#include "sim/bench_report.h"
#include "sim/stats.h"
#include "store/revocation_list.h"

namespace {

using namespace p2drm;  // NOLINT

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rel::LicenseId MakeId(std::uint64_t n) {
  rel::LicenseId id;
  for (int i = 0; i < 8; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(n >> (8 * (7 - i)));
  }
  std::uint64_t mixed = n * 0x9e3779b97f4a7c15ull;
  for (int i = 8; i < 16; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(mixed >> (8 * (i - 8)));
  }
  return id;
}

/// Measures the provider-side cost of one license-signature verification
/// — the per-item crypto a redemption cannot avoid — in microseconds.
double CalibrateVerifyUs(const crypto::RsaPrivateKey& key,
                         bignum::RandomSource* rng) {
  const crypto::RsaPublicKey pub = key.PublicKey();
  const int kSamples = 20;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (int i = 0; i < kSamples; ++i) {
    std::vector<std::uint8_t> msg(64);
    rng->Fill(msg.data(), msg.size());
    msgs.push_back(msg);
    sigs.push_back(crypto::RsaSignFdh(key, msg));
  }
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSamples; ++i) {
    if (!crypto::RsaVerifyFdh(pub, msgs[i], sigs[i])) {
      std::fprintf(stderr, "calibration verify failed\n");
      std::exit(1);
    }
  }
  double us = SecondsSince(t0) * 1e6 / kSamples;
  return us < 1.0 ? 1.0 : us;
}

/// Part D (mutate stage): wall-clock cost of the journaled spend stage
/// alone — batch-routed SpendBatch traffic against a ServerRuntime with
/// real journal segments, no crypto. `modern` selects the flat spent-set
/// engine + group-committed journal blocks (docs/storage.md); off is the
/// legacy unordered_set + write()-per-record baseline the storage engine
/// replaced.
double RunMutateStage(bool modern, std::size_t shards, std::size_t total,
                      std::size_t chunk, const std::string& journal_prefix) {
  // Fresh journal family per run (the bench measures appending, not
  // replay); segments live in the build directory like the other benches'
  // scratch files and are removed again below.
  auto cleanup = [&journal_prefix, shards] {
    std::error_code ec;
    std::filesystem::remove(journal_prefix, ec);
    for (std::size_t s = 0; s < shards; ++s) {
      std::filesystem::remove(
          server::ServerRuntime::SegmentPath(journal_prefix, s), ec);
    }
  };
  cleanup();
  server::ServerRuntimeConfig cfg;
  cfg.shard_count = shards;
  cfg.queue_capacity = 1u << 16;
  cfg.spent_backend = modern ? store::SpentSetBackend::kFlat
                             : store::SpentSetBackend::kHashSet;
  cfg.group_commit_journal = modern;
  cfg.journal_path_prefix = journal_prefix;
  double wall_s = 0;
  {
    server::ServerRuntime rt(cfg);
    // Ids are prebuilt so the timed section is exactly the mutate stage:
    // route + batch probe + journal append.
    std::vector<std::vector<rel::LicenseId>> chunks;
    chunks.reserve(total / chunk + 1);
    for (std::size_t base = 0; base < total; base += chunk) {
      const std::size_t n = std::min(chunk, total - base);
      std::vector<rel::LicenseId> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = MakeId(0x4000000000000000ull + base + i);
      }
      chunks.push_back(std::move(ids));
    }
    std::vector<core::Status> statuses;
    Clock::time_point t0 = Clock::now();
    for (const auto& ids : chunks) {
      rt.SpendBatch(ids, &statuses, /*shed_on_full=*/false);
      for (core::Status s : statuses) {
        if (s != core::Status::kOk) {
          std::fprintf(stderr, "FAIL: mutate-stage spend rejected\n");
          std::exit(1);
        }
      }
    }
    rt.Drain();
    wall_s = SecondsSince(t0);
    if (rt.SpentSize() != total) {
      std::fprintf(stderr, "FAIL: mutate stage lost spends\n");
      std::exit(1);
    }
  }
  cleanup();
  return wall_s * 1e6 / static_cast<double>(total);
}

struct ScalingResult {
  double sim_throughput = 0;   // items per simulated second
  double wall_throughput = 0;  // items per wall second
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t processed = 0;
  std::uint64_t max_shard_items = 0;
  std::uint64_t min_shard_items = 0;
};

ScalingResult RunScaling(std::size_t shards, std::size_t items,
                         double service_us) {
  server::ServerRuntimeConfig cfg;
  cfg.shard_count = shards;
  cfg.queue_capacity = 1u << 16;
  server::ServerRuntime rt(cfg);

  // Open-loop arrivals at 80% utilization per shard: the offered rate
  // grows with the shard count, which is exactly the capacity claim the
  // shard architecture makes.
  const double inter_arrival_us =
      service_us / (0.8 * static_cast<double>(shards));
  std::vector<sim::LatencyStats> shard_stats(shards);

  const std::size_t kChunk = 4096;
  Clock::time_point t0 = Clock::now();
  for (std::size_t base = 0; base < items; base += kChunk) {
    std::size_t count = std::min(kChunk, items - base);
    // Route the chunk, then hand each shard its slice as one task.
    std::vector<std::vector<std::uint64_t>> groups(shards);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t n = base + i;
      groups[rt.ShardFor(MakeId(n))].push_back(n);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (groups[s].empty()) continue;
      std::size_t weight = groups[s].size();
      rt.Submit(
          s,
          [group = std::move(groups[s]), inter_arrival_us, service_us,
           stats = &shard_stats[s]](server::ShardContext& ctx) {
            for (std::uint64_t n : group) {
              double arrival = static_cast<double>(n) * inter_arrival_us;
              double start = static_cast<double>(ctx.sim_clock_us);
              if (arrival > start) start = arrival;
              bool fresh = ctx.spent.Insert(MakeId(n));
              double done = start + service_us;
              ctx.sim_clock_us = static_cast<std::uint64_t>(done);
              stats->Add(done - arrival);
              ctx.processed += fresh ? 1 : 0;
            }
          },
          weight);
    }
  }
  rt.Drain();
  double wall_s = SecondsSince(t0);

  ScalingResult r;
  r.min_shard_items = items;
  std::uint64_t makespan_us = 0;
  sim::LatencyStats all;
  for (std::size_t s = 0; s < shards; ++s) {
    std::uint64_t done = rt.ShardProcessed(s);
    r.processed += done;
    if (done > r.max_shard_items) r.max_shard_items = done;
    if (done < r.min_shard_items) r.min_shard_items = done;
    // The batch is finished when the slowest shard's sim clock stops.
    makespan_us = std::max(makespan_us, rt.ShardSimClockUs(s));
    all.Merge(shard_stats[s]);
  }
  r.sim_throughput =
      static_cast<double>(items) / (static_cast<double>(makespan_us) / 1e6);
  r.wall_throughput = static_cast<double>(items) / wall_s;
  r.p50_us = all.Percentile(50);
  r.p99_us = all.Percentile(99);
  return r;
}

struct PipelineResult {
  core::ContentProvider::PipelineTimings timings;
  double issue_makespan_us = 0;  ///< slowest signer's accrued signing time
  double sigs_per_sec_sim = 0;   ///< signatures / issue makespan
  std::uint64_t signatures = 0;
  double total_wall_us = 0;
};

/// Spend shards behind the Part D/E stacks; only the signer count varies.
constexpr std::size_t kPipelineShards = 4;

/// The Part D/E tail shared by both flows: per-stage timings of the batch
/// call just made, plus the issue makespan read off the pool's sim clocks.
PipelineResult FinishPipeline(const sim::ProviderStack& stack,
                              const core::OpCounters& ops_before,
                              double wall_us) {
  PipelineResult out;
  out.timings = stack.cp.LastBatchTimings();
  out.signatures = (core::AggregateOps() - ops_before).sign;
  out.total_wall_us = wall_us;
  out.issue_makespan_us =
      static_cast<double>(stack.cp.Pool()->MaxWorkerSimClockUs());
  if (out.issue_makespan_us > 0) {
    out.sigs_per_sec_sim =
        static_cast<double>(out.signatures) / (out.issue_makespan_us / 1e6);
  }
  return out;
}

/// Part D worker: one RedeemAnonymousBatch over \p batch_items bearers,
/// the issue stage on a \p signers-worker pool.
PipelineResult RunPipeline(std::size_t signers, std::size_t batch_items,
                           std::size_t key_bits, obs::Registry* registry,
                           const std::string& obs_prefix) {
  // Shared deterministic stack fixture: every signer count redeems
  // byte-identical traffic (setup failures throw, which a bench treats
  // as a crash — correctly).
  sim::ProviderStack stack("pipeline-scaling", kPipelineShards, key_bits,
                           /*queue_capacity=*/4096, signers);
  if (registry != nullptr) {
    obs::Sink sink;
    sink.registry = registry;
    stack.cp.set_observability(sink, obs_prefix);
  }
  core::Pseudonym* giver = stack.NewPseudonym();
  core::Pseudonym* taker = stack.NewPseudonym();
  std::vector<core::ContentProvider::RedeemItem> items;
  items.reserve(batch_items);
  for (std::size_t i = 0; i < batch_items; ++i) {
    items.push_back({stack.NewBearer(giver), taker->cert});
  }

  core::OpCounters ops_before = core::AggregateOps();
  Clock::time_point t0 = Clock::now();
  auto results = stack.cp.RedeemAnonymousBatch(items);
  double wall_us = SecondsSince(t0) * 1e6;
  for (const auto& r : results) {
    if (r.status != core::Status::kOk) {
      std::fprintf(stderr, "pipeline redemption failed\n");
      std::exit(1);
    }
  }
  return FinishPipeline(stack, ops_before, wall_us);
}

/// Part E worker: one ExchangeBatch over \p batch_items licenses, the
/// issue stage on a \p signers-worker pool. Setup (purchases and
/// possession proofs) issues on the dispatch thread, so the pool's sim
/// clocks measure the exchange fan-out alone.
PipelineResult RunExchangePipeline(std::size_t signers,
                                   std::size_t batch_items,
                                   std::size_t key_bits,
                                   obs::Registry* registry,
                                   const std::string& obs_prefix) {
  sim::ProviderStack stack("exchange-scaling", kPipelineShards, key_bits,
                           /*queue_capacity=*/4096, signers);
  if (registry != nullptr) {
    obs::Sink sink;
    sink.registry = registry;
    stack.cp.set_observability(sink, obs_prefix);
  }
  core::Pseudonym* owner = stack.NewPseudonym();
  std::vector<core::ContentProvider::ExchangeItem> items;
  items.reserve(batch_items);
  for (std::size_t i = 0; i < batch_items; ++i) {
    rel::License lic = stack.NewBoundLicense(owner);
    items.push_back({lic, stack.PossessionSig(owner, lic)});
  }

  core::OpCounters ops_before = core::AggregateOps();
  Clock::time_point t0 = Clock::now();
  auto results = stack.cp.ExchangeBatch(items);
  double wall_us = SecondsSince(t0) * 1e6;
  for (const auto& r : results) {
    if (r.status != core::Status::kOk) {
      std::fprintf(stderr, "pipeline exchange failed\n");
      std::exit(1);
    }
  }
  return FinishPipeline(stack, ops_before, wall_us);
}

/// Part G worker: streams \p num_batches redemption batches through the
/// staged pipeline with a dedicated signer pool.
struct StreamingResult {
  core::ContentProvider::PipelineTimings timings;  ///< busy sums + wall span
  std::uint64_t completed = 0;
  std::uint64_t steals = 0;
  double dispatch_busy_us = 0;   ///< verify + spend busy (dispatch thread)
  double pool_makespan_us = 0;   ///< slowest signer's accrued sim clock
  double sim_makespan_us = 0;    ///< max(dispatch busy, pool makespan)
};

StreamingResult RunStreamingOverlap(std::size_t shards, std::size_t signers,
                                    std::size_t num_batches,
                                    std::size_t batch_items,
                                    std::size_t key_bits) {
  sim::ProviderStack stack("streaming-overlap", shards, key_bits,
                           /*queue_capacity=*/4096, signers,
                           /*max_batches_in_flight=*/4);
  core::Pseudonym* giver = stack.NewPseudonym();
  core::Pseudonym* taker = stack.NewPseudonym();
  std::vector<std::vector<core::ContentProvider::RedeemItem>> batches(
      num_batches);
  for (auto& b : batches) {
    b.reserve(batch_items);
    for (std::size_t i = 0; i < batch_items; ++i) {
      b.push_back({stack.NewBearer(giver), taker->cert});
    }
  }

  StreamingResult out;
  for (auto& b : batches) {
    stack.cp.StreamRedeemBatch(
        std::move(b),
        [&out](std::vector<core::ContentProvider::PurchaseResult> results) {
          for (const auto& r : results) {
            if (r.status != core::Status::kOk) {
              std::fprintf(stderr, "streaming redemption failed\n");
              std::exit(1);
            }
            ++out.completed;
          }
        });
  }
  out.timings = stack.cp.FlushStreaming();
  out.dispatch_busy_us = out.timings.verify_us + out.timings.spend_us;
  const server::SignerPool* pool = stack.cp.Pool();
  if (pool != nullptr) {
    out.steals = pool->Steals();
    out.pool_makespan_us = static_cast<double>(pool->MaxWorkerSimClockUs());
  }
  out.sim_makespan_us = std::max(out.dispatch_busy_us, out.pool_makespan_us);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t items = 1000000;
  std::size_t verify_items = 64;
  std::size_t distinct_certs = 8;
  std::size_t key_bits = 1024;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--items") == 0 && i + 1 < argc) {
      items = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc) {
      key_bits = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      items = 20000;
      verify_items = 16;
      distinct_certs = 4;
      key_bits = 512;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--items N] [--bits B] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  sim::BenchReport report("bench_server_scaling");
  report.ConfigMetric("items", static_cast<double>(items));
  report.ConfigMetric("verify_items", static_cast<double>(verify_items));
  report.ConfigMetric("distinct_certs", static_cast<double>(distinct_certs));
  report.ConfigMetric("key_bits", static_cast<double>(key_bits));
  report.ConfigNote("shard_sweep", "1,2,4,8");
  // Parts D/E: signer sweeps over a fixed spend-shard count.
  report.ConfigNote("signer_sweep", "1,2,4,8 (Part D), 1,4 (Part E)");
  report.ConfigMetric("pipeline_shards", static_cast<double>(kPipelineShards));
  report.ConfigNote("seed", "server-scaling");
  // Part G streaming-pipeline knobs (ISSUE 9).
  report.ConfigMetric("signer_pool_size", 4);
  report.ConfigMetric("max_batches_in_flight", 4);
  report.ConfigNote("signer_pool_steal_policy",
                    "owner pops front; thieves scan from the next worker "
                    "and pop back");
  crypto::HmacDrbg rng("server-scaling");

  std::printf("server scaling: %zu simulated redemptions, %zu-bit keys\n",
              items, key_bits);
  crypto::RsaPrivateKey cp_key = crypto::GenerateRsaKey(key_bits, &rng);
  double service_us = CalibrateVerifyUs(cp_key, &rng);
  std::printf("calibrated per-item verify cost: %.1f us\n", service_us);
  report.Metric("service_us", service_us);

  // -- Part A: shard scaling (modeled router balance) ------------------------
  double base_throughput = 0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    ScalingResult r = RunScaling(shards, items, service_us);
    std::printf(
        "shards=%zu  sim-throughput=%10.0f items/s  wall=%10.0f/s  "
        "p50=%7.1fus  p99=%8.1fus  shard-items=[%llu..%llu]\n",
        shards, r.sim_throughput, r.wall_throughput, r.p50_us, r.p99_us,
        static_cast<unsigned long long>(r.min_shard_items),
        static_cast<unsigned long long>(r.max_shard_items));
    if (r.processed != items) {
      std::fprintf(stderr, "lost items: %llu != %zu\n",
                   static_cast<unsigned long long>(r.processed), items);
      return 1;
    }
    std::string prefix = "shards" + std::to_string(shards);
    report.Metric(prefix + ".sim_items_per_sec", r.sim_throughput);
    report.Metric(prefix + ".wall_items_per_sec", r.wall_throughput);
    report.Metric(prefix + ".p50_us", r.p50_us);
    report.Metric(prefix + ".p99_us", r.p99_us);
    if (shards == 1) base_throughput = r.sim_throughput;
    if (shards == 4) {
      double ratio = r.sim_throughput / base_throughput;
      std::printf("4-shard vs 1-shard modeled throughput: %.2fx\n", ratio);
      report.Metric("scaling_4v1", ratio);
      if (ratio < 2.0) {
        std::fprintf(stderr, "FAIL: 4-shard scaling %.2fx < 2x\n", ratio);
        return 1;
      }
    }
  }

  // -- Part B: amortized batch verification ---------------------------------
  std::printf("\nbatch verification: %zu items, %zu distinct pseudonyms\n",
              verify_items, distinct_certs);
  crypto::RsaPrivateKey ca_key = crypto::GenerateRsaKey(key_bits, &rng);
  crypto::RsaPrivateKey pseudonym_key = crypto::GenerateRsaKey(key_bits, &rng);

  std::vector<core::PseudonymCertificate> certs(distinct_certs);
  for (auto& cert : certs) {
    cert.pseudonym_key = pseudonym_key.PublicKey();
    cert.escrow.resize(32);
    rng.Fill(cert.escrow.data(), cert.escrow.size());
    cert.ca_signature = crypto::RsaSignFdh(ca_key, cert.CanonicalBytes());
  }
  std::vector<std::vector<std::uint8_t>> msgs(verify_items);
  std::vector<std::vector<std::uint8_t>> sigs(verify_items);
  for (std::size_t i = 0; i < verify_items; ++i) {
    msgs[i].resize(96);
    rng.Fill(msgs[i].data(), msgs[i].size());
    sigs[i] = crypto::RsaSignFdh(cp_key, msgs[i]);
  }
  store::RevocationList crl(store::CrlStrategy::kBloomFronted, 1024);
  std::vector<rel::KeyFingerprint> keys(verify_items);
  for (std::size_t i = 0; i < verify_items; ++i) {
    keys[i] = certs[i % distinct_certs].KeyId();
  }

  // Naive: two full verifications and one CRL probe per item.
  Clock::time_point t0 = Clock::now();
  std::size_t naive_ok = 0;
  for (std::size_t i = 0; i < verify_items; ++i) {
    bool ok = crypto::RsaVerifyFdh(cp_key.PublicKey(), msgs[i], sigs[i]) &&
              core::VerifyPseudonymCert(ca_key.PublicKey(),
                                        certs[i % distinct_certs]) &&
              !crl.IsRevoked(keys[i]);
    naive_ok += ok ? 1 : 0;
  }
  double naive_s = SecondsSince(t0);
  std::uint64_t naive_verifies = 2 * verify_items;

  // Batched: one screened group check, one verify per distinct cert,
  // one shared CRL pass.
  server::BatchVerifier verifier;
  t0 = Clock::now();
  std::vector<bool> sig_ok =
      verifier.VerifySameKeyBatch(cp_key.PublicKey(), msgs, sigs, &rng);
  std::size_t batch_ok = 0;
  for (std::size_t i = 0; i < verify_items; ++i) {
    bool ok = sig_ok[i] &&
              verifier.VerifyPseudonymCert(ca_key.PublicKey(),
                                           certs[i % distinct_certs]);
    batch_ok += ok ? 1 : 0;
  }
  std::vector<bool> revoked = verifier.CrlProbePass(crl, keys);
  double batch_s = SecondsSince(t0);
  server::BatchVerifierStats stats = verifier.stats();

  std::printf("  naive:   %llu full RSA verifies, %8.2f ms (%zu valid)\n",
              static_cast<unsigned long long>(naive_verifies), naive_s * 1e3,
              naive_ok);
  std::printf("  batched: %llu full RSA verifies, %8.2f ms (%zu valid)\n",
              static_cast<unsigned long long>(stats.full_verifies),
              batch_s * 1e3, batch_ok);
  report.Metric("amortize.items", static_cast<double>(verify_items));
  report.Metric("amortize.distinct_certs", static_cast<double>(distinct_certs));
  report.Metric("amortize.naive_full_rsa_verifies",
                static_cast<double>(naive_verifies));
  report.Metric("amortize.batch_full_rsa_verifies",
                static_cast<double>(stats.full_verifies));
  report.Metric("amortize.naive_ms", naive_s * 1e3);
  report.Metric("amortize.batch_ms", batch_s * 1e3);
  report.Metric("amortize.cert_cache_hits",
                static_cast<double>(stats.cert_cache_hits));
  report.Metric("amortize.crl_probe_hits",
                static_cast<double>(stats.crl_probe_hits));
  if (naive_ok != verify_items || batch_ok != verify_items) {
    std::fprintf(stderr, "FAIL: genuine signatures rejected\n");
    return 1;
  }
  for (bool r : revoked) {
    if (r) {
      std::fprintf(stderr, "FAIL: spurious revocation\n");
      return 1;
    }
  }
  if (stats.full_verifies >= verify_items) {
    std::fprintf(stderr,
                 "FAIL: batched verification did not beat one op per item "
                 "(%llu >= %zu)\n",
                 static_cast<unsigned long long>(stats.full_verifies),
                 verify_items);
    return 1;
  }

  // -- Part C: bounded-queue backpressure -----------------------------------
  {
    server::ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.queue_capacity = 64;
    server::ServerRuntime rt(cfg);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    for (std::size_t s = 0; s < rt.shard_count(); ++s) {
      rt.Submit(s, [gate](server::ShardContext&) { gate.wait(); });
    }
    std::vector<rel::LicenseId> flood(4096);
    for (std::size_t i = 0; i < flood.size(); ++i) {
      flood[i] = MakeId(0x80000000ull + i);
    }
    std::vector<core::Status> st;
    rt.SpendBatch(flood, &st, /*shed_on_full=*/true);
    release.set_value();
    rt.Drain();
    std::size_t shed = 0;
    for (core::Status s : st) {
      if (s == core::Status::kOverloaded) ++shed;
    }
    std::printf("\nbackpressure: %zu of %zu items shed with kOverloaded\n",
                shed, flood.size());
    report.Metric("overload.flood_items", static_cast<double>(flood.size()));
    report.Metric("overload.shed_items", static_cast<double>(shed));
    if (shed == 0) {
      std::fprintf(stderr, "FAIL: bounded queue never shed\n");
      return 1;
    }
  }

  // -- Part D: three-stage issuance pipeline --------------------------------
  std::size_t pipeline_items = verify_items;  // 64 full / 16 smoke
  std::printf(
      "\nissuance pipeline: %zu-item batch redemption, per-stage timings\n",
      pipeline_items);
  // Wall-clock per-stage latency histograms land in the registry (and
  // from there in the report's metrics block) under signers<N>.pipeline.*.
  // Real-time measurements, so the VALUES are not byte-stable — this
  // bench's report is not byte-compared by CI, the scenario one is.
  obs::Registry registry;
  double base_sigs_per_sec = 0;
  for (std::size_t signers : {1u, 2u, 4u, 8u}) {
    PipelineResult r =
        RunPipeline(signers, pipeline_items, key_bits, &registry,
                    "signers" + std::to_string(signers) + ".");
    std::printf(
        "signers=%zu  verify=%8.0fus  spend=%6.0fus  issue=%8.0fus  "
        "issue-makespan=%8.0fus  sigs=%llu  sim-sigs/s=%8.0f\n",
        signers, r.timings.verify_us, r.timings.spend_us, r.timings.issue_us,
        r.issue_makespan_us,
        static_cast<unsigned long long>(r.signatures), r.sigs_per_sec_sim);
    std::string prefix = "pipeline.signers" + std::to_string(signers);
    report.Metric(prefix + ".verify_us", r.timings.verify_us);
    report.Metric(prefix + ".spend_us", r.timings.spend_us);
    report.Metric(prefix + ".issue_us", r.timings.issue_us);
    report.Metric(prefix + ".issue_makespan_us", r.issue_makespan_us);
    report.Metric(prefix + ".signatures", static_cast<double>(r.signatures));
    report.Metric(prefix + ".sim_sigs_per_sec", r.sigs_per_sec_sim);
    report.Metric(prefix + ".total_wall_us", r.total_wall_us);
    if (signers == 1) base_sigs_per_sec = r.sigs_per_sec_sim;
    if (signers == 4) {
      double ratio =
          base_sigs_per_sec > 0 ? r.sigs_per_sec_sim / base_sigs_per_sec : 0;
      std::printf("4-signer vs 1-signer issue throughput: %.2fx\n", ratio);
      report.Metric("pipeline.issue_scaling_4v1", ratio);
      // Issuance is not serialized on the dispatch thread: four
      // signers must beat one by a clear margin (the bound is loose
      // because per-item signing times are wall-measured and a noisy CI
      // neighbor can inflate one signer's makespan).
      if (ratio < 1.5) {
        std::fprintf(stderr, "FAIL: 4-signer issue scaling %.2fx < 1.5x\n",
                     ratio);
        return 1;
      }
    }
  }

  // -- Part D (mutate stage): storage engine vs legacy ----------------------
  // The spend stage in isolation, at 4 shards with real journal segments:
  // flat table + group-committed blocks against the unordered_set +
  // write()-per-record baseline it replaced (docs/storage.md). Both runs
  // route identical traffic through identical SpendBatch chunks, so the
  // ratio isolates the storage engine.
  {
    const std::size_t mutate_items = items < 400000 ? 80000 : 400000;
    const std::size_t mutate_chunk = items < 400000 ? 4096 : 8192;
    const std::size_t mutate_shards = 4;
    report.ConfigMetric("mutate.items", static_cast<double>(mutate_items));
    report.ConfigMetric("mutate.chunk", static_cast<double>(mutate_chunk));
    report.ConfigNote("mutate.engines",
                      "legacy=hash-set+per-record-append, "
                      "modern=flat+group-commit");
    const double legacy_us = RunMutateStage(
        /*modern=*/false, mutate_shards, mutate_items, mutate_chunk,
        "bench_scaling_mutate.journal");
    const double modern_us = RunMutateStage(
        /*modern=*/true, mutate_shards, mutate_items, mutate_chunk,
        "bench_scaling_mutate.journal");
    const double speedup = modern_us > 0 ? legacy_us / modern_us : 0;
    std::printf(
        "\nmutate stage (%zu spends, %zu-id chunks, %zu shards, journaled)\n"
        "  legacy (hash-set + per-record write)   %7.3f us/item\n"
        "  flat + group-commit                    %7.3f us/item   %.2fx\n",
        mutate_items, mutate_chunk, mutate_shards, legacy_us, modern_us,
        speedup);
    report.Metric("mutate.legacy_us_per_item", legacy_us);
    report.Metric("mutate.flat_group_commit_us_per_item", modern_us);
    report.Metric("mutate.speedup", speedup);
    // The storage engine must carry its weight end to end, not just in
    // the microbench: spend-stage throughput at 4 shards has to hold a
    // clear margin over the legacy engine.
    if (speedup < 1.5) {
      std::fprintf(stderr, "FAIL: mutate-stage speedup %.2fx < 1.5x\n",
                   speedup);
      return 1;
    }
  }

  // -- Part E: exchange batch -----------------------------------------------
  std::printf(
      "\nexchange batch: %zu-item batch, issue on the signer pool\n",
      pipeline_items);
  double base_exchange_sigs_per_sec = 0;
  for (std::size_t signers : {1u, 4u}) {
    PipelineResult r =
        RunExchangePipeline(signers, pipeline_items, key_bits, &registry,
                            "exch.signers" + std::to_string(signers) + ".");
    std::printf(
        "signers=%zu  verify=%8.0fus  spend=%6.0fus  issue=%8.0fus  "
        "issue-makespan=%8.0fus  sigs=%llu  sim-sigs/s=%8.0f\n",
        signers, r.timings.verify_us, r.timings.spend_us, r.timings.issue_us,
        r.issue_makespan_us,
        static_cast<unsigned long long>(r.signatures), r.sigs_per_sec_sim);
    std::string prefix = "exchange.signers" + std::to_string(signers);
    report.Metric(prefix + ".verify_us", r.timings.verify_us);
    report.Metric(prefix + ".spend_us", r.timings.spend_us);
    report.Metric(prefix + ".issue_us", r.timings.issue_us);
    report.Metric(prefix + ".issue_makespan_us", r.issue_makespan_us);
    report.Metric(prefix + ".signatures", static_cast<double>(r.signatures));
    report.Metric(prefix + ".sim_sigs_per_sec", r.sigs_per_sec_sim);
    report.Metric(prefix + ".total_wall_us", r.total_wall_us);
    if (signers == 1) base_exchange_sigs_per_sec = r.sigs_per_sec_sim;
    if (signers == 4) {
      double ratio = base_exchange_sigs_per_sec > 0
                         ? r.sigs_per_sec_sim / base_exchange_sigs_per_sec
                         : 0;
      std::printf("4-signer vs 1-signer exchange throughput: %.2fx\n",
                  ratio);
      report.Metric("exchange.issue_scaling_4v1", ratio);
      // The exchange flow rides the same pipeline, so the Part D bound
      // applies to it too.
      if (ratio < 1.5) {
        std::fprintf(stderr,
                     "FAIL: 4-signer exchange scaling %.2fx < 1.5x\n", ratio);
        return 1;
      }
    }
  }

  // -- Part F: observability-off overhead -----------------------------------
  // The instrumentation contract: with the endpoints runtime-disabled,
  // every hot-path hook is one relaxed atomic load + branch. Hammer the
  // three hook shapes (counter add, histogram observe, span) and gate the
  // per-op cost. The bound is deliberately loose — CI neighbors — but a
  // regression to "takes a lock when disabled" blows past it by orders of
  // magnitude.
  {
    obs::Registry off_registry;
    obs::Tracer off_tracer;
    off_registry.set_enabled(false);
    off_tracer.set_enabled(false);
    obs::Registry::Id ctr = off_registry.Counter("off.ctr");
    obs::Registry::Id hist = off_registry.Histogram("off.hist");
    const std::size_t kOps = 1'000'000;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      off_registry.Add(ctr);
      off_registry.Observe(hist, i);
      obs::Span span(&off_tracer, "off.span");
    }
    double ns_per_op = SecondsSince(t0) * 1e9 / (3.0 * kOps);
    std::printf("\nobservability disabled: %.2f ns per hook\n", ns_per_op);
    report.Metric("obs.disabled_ns_per_hook", ns_per_op);
    if (off_registry.Aggregate()[0].counter != 0) {
      std::fprintf(stderr, "FAIL: disabled registry still recorded\n");
      return 1;
    }
    if (off_tracer.event_count() != 0) {
      std::fprintf(stderr, "FAIL: disabled tracer still recorded\n");
      return 1;
    }
    if (ns_per_op > 100.0) {
      std::fprintf(stderr,
                   "FAIL: disabled observability hook costs %.1f ns > 100 ns\n",
                   ns_per_op);
      return 1;
    }
  }

  // -- Part G: streaming cross-batch overlap --------------------------------
  {
    const std::size_t kStreamShards = 4;
    const std::size_t kStreamSigners = 4;
    const std::size_t kStreamBatches = 6;
    std::size_t stream_items = std::max<std::size_t>(pipeline_items / 2, 4);
    std::printf(
        "\nstreaming pipeline: %zu x %zu-item redeem batches, "
        "%zu shards, %zu signers\n",
        kStreamBatches, stream_items, kStreamShards, kStreamSigners);
    StreamingResult r = RunStreamingOverlap(
        kStreamShards, kStreamSigners, kStreamBatches, stream_items, key_bits);
    double stage_sum =
        r.timings.verify_us + r.timings.spend_us + r.timings.issue_us;
    std::printf(
        "  busy: verify=%8.0fus  spend=%6.0fus  issue=%8.0fus  sum=%8.0fus\n",
        r.timings.verify_us, r.timings.spend_us, r.timings.issue_us, stage_sum);
    std::printf(
        "  sim-makespan=%8.0fus (dispatch=%8.0fus, pool=%8.0fus)  "
        "wall-span=%8.0fus  steals=%llu\n",
        r.sim_makespan_us, r.dispatch_busy_us, r.pool_makespan_us,
        r.timings.makespan_us, static_cast<unsigned long long>(r.steals));
    report.Metric("streaming.verify_busy_us", r.timings.verify_us);
    report.Metric("streaming.spend_busy_us", r.timings.spend_us);
    report.Metric("streaming.issue_busy_us", r.timings.issue_us);
    report.Metric("streaming.stage_sum_us", stage_sum);
    report.Metric("streaming.sim_makespan_us", r.sim_makespan_us);
    report.Metric("streaming.wall_makespan_us", r.timings.makespan_us);
    report.Metric("streaming.pool_steals", static_cast<double>(r.steals));
    report.Metric("streaming.completed", static_cast<double>(r.completed));
    if (r.completed != kStreamBatches * stream_items) {
      std::fprintf(stderr, "FAIL: streaming completed %llu of %zu items\n",
                   static_cast<unsigned long long>(r.completed),
                   kStreamBatches * stream_items);
      return 1;
    }
    double ratio = stage_sum > 0 ? r.sim_makespan_us / stage_sum : 1.0;
    std::printf("  overlap: makespan / stage sum = %.2fx (gate <= 0.85x)\n",
                ratio);
    report.Metric("streaming.makespan_over_stage_sum", ratio);
    // The overlap claim, CI-gated: with verify/spend of later batches
    // running while earlier batches sign on the pool, the schedule's
    // makespan must come in well under the serial stage-time sum.
    if (ratio > 0.85) {
      std::fprintf(stderr,
                   "FAIL: streaming makespan %.0fus > 0.85x stage sum %.0fus "
                   "— no cross-batch overlap\n",
                   r.sim_makespan_us, stage_sum);
      return 1;
    }
  }

  obs::AppendRegistry(registry, "", &report);
  obs::AppendOpCounters(&report);

  // Bignum kernel configuration (docs/bignum.md), recorded after the run
  // so the widths-hit and scratch counters cover everything above.
  report.ConfigMetric("bignum_limb_bits", 64);
  report.ConfigNote("powmod_window_bits", "4 (exp<=512b), 5");
  report.ConfigNote("fixed_width_powmods", bignum::DescribeKernelWidthsHit());
  report.ConfigMetric(
      "scratch_heap_allocs",
      static_cast<double>(bignum::KernelStats().scratch_heap_allocs));

  report.WriteJsonFile();
  return 0;
}
