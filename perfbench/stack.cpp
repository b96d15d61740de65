#include "stack.h"

#include <stdexcept>

#include "server/server_runtime.h"

namespace perfbench {

using namespace p2drm;  // NOLINT

Stack::Stack(const StackConfig& config, obs::Tracer* tracer,
             obs::Registry* registry)
    : rng_(std::string(config.setup_seed)),
      inputs_(std::string(config.setup_seed) + "/inputs"),
      tracer_(tracer),
      registry_(registry),
      zipf_(config.catalog_size, 1.0) {
  // Set-up is not counted: StartRun switches the registry on.
  if (registry_ != nullptr) registry_->set_enabled(false);

  core::SystemConfig cfg;
  cfg.ca_key_bits = kServerKeyBits;
  cfg.ttp_key_bits = kServerKeyBits;
  cfg.bank_key_bits = kServerKeyBits;
  cfg.cp.signing_key_bits = kServerKeyBits;
  cfg.cp.redeem_shards = kRedeemShards;
  cfg.cp.signer_pool_size = kSignerPoolSize;
  cfg.cp.spent_journal_path = config.journal_prefix;
  cfg.bank.deposit_shards = kDepositShards;
  // cfg.latency stays the zero-cost model: no modeled wire time anywhere.
  system_ = std::make_unique<core::P2drmSystem>(cfg, &rng_);
  if (registry_ != nullptr) {
    system_->cp().set_observability(obs::Sink{nullptr, registry_});
    system_->bank().set_observability(obs::Sink{nullptr, registry_});
  }
  if (tracer_ != nullptr) {
    InterposeEndpoints(system_.get(), &ca_service_, tracer_, &current_op_);
  }

  for (std::size_t i = 0; i < config.catalog_size; ++i) {
    catalog_.push_back(system_->cp().Publish(
        "title-" + std::to_string(i),
        std::vector<std::uint8_t>(4096, static_cast<std::uint8_t>(i)),
        1 + i % 20, rel::Rights::FullRetail()));
  }

  core::AgentConfig acfg;
  acfg.pseudonym_bits = kPseudonymBits;
  acfg.pseudonym_max_uses = config.pseudonym_max_uses;
  acfg.initial_bank_balance = std::uint64_t{1} << 40;
  acfg.obs.registry = registry_;
  for (std::size_t u = 0; u < config.users; ++u) {
    agents_.push_back(std::make_unique<core::UserAgent>(
        "user-" + std::to_string(u), acfg, system_.get(), &rng_));
    if (config.mint_pseudonyms && agents_.back()->EnsurePseudonym() == nullptr) {
      throw std::runtime_error("set-up: pseudonym issuance failed");
    }
  }

  if (config.preload_spent > 0) {
    std::vector<rel::LicenseId> ids(config.preload_spent);
    const std::uint64_t key = rng_.NextUint64(~std::uint64_t{0});
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = SyntheticId(key, i);
    auto stats = system_->cp().Runtime()->ImportSpent(ids);
    if (stats.fresh != ids.size()) {
      throw std::runtime_error("set-up: spent-set preload imported duplicates");
    }
  }
}

void Stack::StartRun(std::uint64_t seed) {
  const std::string material = "perfbench run seed " + std::to_string(seed);
  inputs_.Reseed(std::vector<std::uint8_t>(material.begin(), material.end()));
  if (registry_ != nullptr) registry_->set_enabled(true);
}

rel::ContentId Stack::DrawContent() { return catalog_[zipf_.Next(&inputs_)]; }

std::uint64_t Stack::PriceOf(rel::ContentId id) const {
  return system_->cp().FindOffer(id)->price;
}

std::uint64_t Stack::PseudonymCount() const {
  std::uint64_t n = 0;
  for (const auto& a : agents_) n += a->card().pseudonyms().size();
  return n;
}

StackCounts StackCounts::Take(Stack& stack) {
  StackCounts c;
  c.ops = core::AggregateOps();
  c.wire = stack.system().transport().GrandTotal();
  c.pseudonyms = stack.PseudonymCount();
  c.licenses_issued = stack.system().cp().LicensesIssued();
  c.merchant_balance = stack.system().bank().Balance(kMerchantAccount);
  const server::BatchVerifierStats v = stack.system().cp().BatchVerifyStats();
  c.verify_items = v.items;
  c.full_verifies = v.full_verifies;
  return c;
}

StackWorkload::StackWorkload(const Options& options, const StackConfig& config)
    : options_(options), config_(config) {
  config_.journal_prefix = options.work_dir + "/cp-spent";
}

void StackWorkload::SetUp(obs::Tracer* tracer, obs::Registry* registry) {
  stack_ = std::make_unique<Stack>(config_, tracer, registry);
}

Pass StackWorkload::Run(LayerMetrics* layers, Result* result) {
  Stack& stack = *stack_;
  Pass pass;
  stack.StartRun(options_.seed);
  before_ = StackCounts::Take(stack);
  const double placement_s = PlacementSeconds();
  const auto t0 = SteadyClock::now();
  pass.ops = Loop(stack, result);
  pass.loop_s = SecondsSince(t0) - (PlacementSeconds() - placement_s);
  if (layers != nullptr) {
    const auto scan_t0 = SteadyClock::now();
    server::ServerRuntime::JournalScanStats scan;
    {
      OpSpan span(stack.tracer(), "store.journal_scan", 0);
      scan = server::ServerRuntime::ForEachJournalRecord(config_.journal_prefix,
                                                         nullptr);
    }
    layers->Set("store.journal_scan_ids_per_s",
                Ratio(static_cast<double>(scan.records), SecondsSince(scan_t0)));
  }
  after_ = StackCounts::Take(stack);

  Fingerprint* fp = &pass.fingerprint;
  AddOpCounts(after_.ops - before_.ops, fp);
  fp->push_back({"wire.msgs", after_.wire.messages - before_.wire.messages});
  fp->push_back({"wire.bytes", after_.wire.bytes - before_.wire.bytes});
  fp->push_back({"agent.pseudonyms", after_.pseudonyms - before_.pseudonyms});
  fp->push_back({"cp.licenses_issued", after_.licenses_issued - before_.licenses_issued});
  fp->push_back({"bank.merchant_credit", after_.merchant_balance - before_.merchant_balance});
  fp->push_back({"server.verify_items", after_.verify_items - before_.verify_items});
  fp->push_back({"server.full_verifies", after_.full_verifies - before_.full_verifies});
  fp->push_back({"store.spent_ids", stack.system().cp().SpentSetSize()});
  fp->push_back({"store.journal_bytes", DirectoryBytes(options_.work_dir)});
  result->Check(stack.system().transport().SimulatedTimeUs() == 0,
                "no modeled wire time is charged (zero-cost LatencyModel)");
  return pass;
}

void StackWorkload::Layers(const Ledger& ledger, const Pass& pass,
                           LayerMetrics* layers) {
  Stack& stack = *stack_;
  const double ops = pass.ops;
  const double pseudonym_spans = static_cast<double>(ledger.Count("agent.pseudonym"));
  layers->Set("agent.pseudonym_ms",
              Ratio(ledger.TotalUs("agent.pseudonym"), pseudonym_spans) / 1e3);
  layers->Set("agent.pseudonyms_per_op",
              Ratio(static_cast<double>(after_.pseudonyms - before_.pseudonyms), ops));
  double client_self_us = 0;
  for (const auto& kv : ledger.spans) {
    if (LayerOf(kv.first) == "client") client_self_us += kv.second.self_us;
  }
  layers->Set("agent.client_ms_per_op", Ratio(client_self_us, ops) / 1e3);
  for (const char* ep : {"cp", "bank", "ca"}) {
    const std::string span = std::string("net.") + ep;
    layers->Set(span + ".server_ms_per_op", Ratio(ledger.TotalUs(span), ops) / 1e3);
  }
  layers->Set("net.cp.calls_per_op",
              Ratio(static_cast<double>(ledger.Count("net.cp")), ops));
  layers->Set("net.bank.calls_per_op",
              Ratio(static_cast<double>(ledger.Count("net.bank")), ops));
  layers->Set("net.wire_bytes_per_op",
              Ratio(static_cast<double>(after_.wire.bytes - before_.wire.bytes), ops));
  layers->Set("net.wire_msgs_per_op",
              Ratio(static_cast<double>(after_.wire.messages - before_.wire.messages), ops));

  const auto agg = stack.registry()->Aggregate();
  layers->Set("agent.retried_items",
              static_cast<double>(CounterValue(agg, "agent.retried_items")));
  std::uint64_t shed = 0;
  for (const char* flow : {"purchase", "exchange", "redeem"}) {
    const std::string base = std::string("pipeline.") + flow + ".";
    const double items = static_cast<double>(CounterValue(agg, base + "items"));
    for (const char* stage : {"verify", "mutate", "issue"}) {
      layers->Set(std::string("server.") + flow + "." + stage + "_us_per_item",
                  Ratio(static_cast<double>(HistogramSum(agg, base + stage + "_us")), items));
    }
    shed += CounterValue(agg, base + "shed");
  }
  const double deposits = static_cast<double>(CounterValue(agg, "pipeline.deposit.items"));
  for (const char* stage : {"verify", "mutate"}) {
    layers->Set(std::string("payment.deposit.") + stage + "_us_per_item",
                Ratio(static_cast<double>(HistogramSum(
                          agg, std::string("pipeline.deposit.") + stage + "_us")),
                      deposits));
  }
  shed += CounterValue(agg, "pipeline.deposit.shed");
  layers->Set("server.shed_items", static_cast<double>(shed));
  layers->Set("server.signer_pool.steals",
              static_cast<double>(CounterValue(agg, "signer_pool.steals")));
  layers->Set("server.verify.full_per_item",
              Ratio(static_cast<double>(after_.full_verifies - before_.full_verifies),
                    static_cast<double>(after_.verify_items - before_.verify_items)));

  const core::OpCounters d = after_.ops - before_.ops;
  layers->Set("crypto.keygen_per_op", Ratio(static_cast<double>(d.keygen), ops));
  layers->Set("crypto.sign_per_op", Ratio(static_cast<double>(d.sign), ops));
  layers->Set("crypto.verify_per_op", Ratio(static_cast<double>(d.verify), ops));
  layers->Set("crypto.blind_sign_per_op", Ratio(static_cast<double>(d.blind_sign), ops));
  layers->Set("crypto.hyb_enc_per_op", Ratio(static_cast<double>(d.hybrid_enc), ops));
  layers->Set("crypto.hyb_dec_per_op", Ratio(static_cast<double>(d.hybrid_dec), ops));

  const server::ServerRuntime* rt = stack.system().cp().Runtime();
  layers->Set("store.spent_bytes_per_id",
              Ratio(static_cast<double>(rt->SpentMemoryBytes()),
                    static_cast<double>(rt->SpentSize())));
}

}  // namespace perfbench
