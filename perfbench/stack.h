#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

/// \file stack.h
/// \brief The full provider stack the retail and bulk_transfer workloads
/// drive: P2drmSystem (CA, TTP, bank, CP) behind a zero-cost transport,
/// a published catalog and a set of user agents. Every actor draws from
/// one DRBG with a fixed per-workload seed, not from --seed, because key
/// generation cost varies with the seed through the prime search; --seed
/// drives the workload's inputs, which move keygen only through how much
/// the actors draw between keygens.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/system.h"
#include "crypto/drbg.h"
#include "harness.h"
#include "net/rpc.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/zipf.h"

namespace perfbench {

/// Worker threads of the server: 1 redeem shard + 2 signer-pool workers +
/// 1 deposit shard = 4, no more than nproc on a 4-vCPU machine. The
/// client is one more thread, which also runs every in-process endpoint
/// dispatch.
constexpr std::size_t kRedeemShards = 1;
constexpr std::size_t kSignerPoolSize = 2;
constexpr std::size_t kDepositShards = 1;
constexpr std::size_t kServerKeyBits = 1024;
constexpr std::size_t kPseudonymBits = 512;
/// The content provider's merchant account at the bank.
constexpr const char* kMerchantAccount = "cp";

struct StackConfig {
  const char* setup_seed = "";
  std::size_t users = 1;
  std::size_t catalog_size = 1;
  std::uint64_t pseudonym_max_uses = 1;
  /// Historic license ids imported into the CP's spent set at set-up.
  std::size_t preload_spent = 0;
  /// Mint one pseudonym per agent at set-up (bulk_transfer reuses them).
  bool mint_pseudonyms = false;
  /// CP spent-set journal prefix; empty = no journal.
  std::string journal_prefix;
};

/// One built stack. Tracing and metrics are wired at construction when
/// \p tracer / \p registry are non-null (the traced pass); the untraced
/// pass passes nulls and runs the system exactly as shipped.
class Stack {
 public:
  Stack(const StackConfig& config, p2drm::obs::Tracer* tracer,
        p2drm::obs::Registry* registry);

  /// Ends set-up: seeds the input stream from --seed and switches metrics
  /// on.
  void StartRun(std::uint64_t seed);

  p2drm::core::P2drmSystem& system() { return *system_; }
  p2drm::core::UserAgent& agent(std::size_t i) { return *agents_[i]; }
  /// The workload's input stream (catalog draws, replay choices), seeded
  /// from --seed by StartRun.
  p2drm::crypto::HmacDrbg& inputs() { return inputs_; }

  /// Draws a Zipf(1.0) catalog entry.
  p2drm::rel::ContentId DrawContent();
  std::uint64_t PriceOf(p2drm::rel::ContentId id) const;

  /// Op id the interposed endpoints tag their spans with.
  void set_current_op(std::uint64_t op) { current_op_ = op; }

  /// Pseudonyms minted so far across all agents' cards.
  std::uint64_t PseudonymCount() const;

  p2drm::obs::Tracer* tracer() const { return tracer_; }
  p2drm::obs::Registry* registry() const { return registry_; }

 private:
  p2drm::crypto::HmacDrbg rng_;
  p2drm::crypto::HmacDrbg inputs_;
  p2drm::obs::Tracer* tracer_;
  p2drm::obs::Registry* registry_;
  std::unique_ptr<p2drm::core::P2drmSystem> system_;
  p2drm::net::ServiceRegistry ca_service_;
  std::vector<std::unique_ptr<p2drm::core::UserAgent>> agents_;
  std::vector<p2drm::rel::ContentId> catalog_;
  p2drm::sim::ZipfGenerator zipf_;
  std::uint64_t current_op_ = 0;
};

/// Exact counters of a stack at one instant; deltas bracket a pass.
struct StackCounts {
  p2drm::core::OpCounters ops;
  p2drm::net::ChannelStats wire;
  std::uint64_t pseudonyms = 0;
  std::uint64_t licenses_issued = 0;
  std::uint64_t merchant_balance = 0;
  std::uint64_t verify_items = 0;
  std::uint64_t full_verifies = 0;

  static StackCounts Take(Stack& stack);
};

/// A workload that drives a provider stack: set-up builds the Stack from
/// the workload's config, and a pass times the workload's loop on it
/// (with the CP journal scan after the loop on the traced pass).
class StackWorkload : public Workload {
 public:
  StackWorkload(const Options& options, const StackConfig& config);

  void SetUp(p2drm::obs::Tracer* tracer, p2drm::obs::Registry* registry) override;
  Pass Run(LayerMetrics* layers, Result* result) override;
  /// Span totals from \p ledger, pipeline histograms and counters from
  /// the stack's registry, exact op counts from the pass's deltas.
  void Layers(const Ledger& ledger, const Pass& pass, LayerMetrics* layers) override;

 protected:
  /// Drives the measured loop on the started stack and returns its op
  /// count in the workload's unit (user ops or license items). Records
  /// latency samples and correctness checks as it goes, and calls
  /// RotatePlacement only between timed ops.
  virtual double Loop(Stack& stack, Result* result) = 0;

  const Options options_;

 private:
  StackConfig config_;
  std::unique_ptr<Stack> stack_;
  StackCounts before_;
  StackCounts after_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
