#ifndef P2DRM_CORE_PAYMENT_H_
#define P2DRM_CORE_PAYMENT_H_

/// \file payment.h
/// \brief Anonymous payment: Chaum-style blind-signature e-cash.
///
/// The paper's purchase protocol needs payment that does not identify the
/// buyer to the content provider *or* let the bank link a withdrawal to a
/// spend. Coins are fixed-denomination serials blind-signed by the bank;
/// withdrawal is identified (the account is debited), deposit is anonymous,
/// and double-spending is caught by the serial set. The identified
/// `DirectDebit` path is the baseline-DRM payment and is deliberately
/// privacy-leaking: the bank records payee and amount.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/random_source.h"
#include "core/errors.h"
#include "crypto/rsa.h"
#include "server/batch_pipeline.h"
#include "server/batch_verifier.h"
#include "server/server_runtime.h"
#include "server/stage_executor.h"
#include "store/spent_set.h"

namespace p2drm {
namespace core {

/// A bearer coin: random serial blind-signed under the denomination key.
struct Coin {
  std::array<std::uint8_t, 16> serial{};
  std::uint32_t denomination = 0;
  std::vector<std::uint8_t> signature;  ///< bank RSA-FDH over CanonicalBytes

  /// The byte string the bank's blind signature covers.
  std::vector<std::uint8_t> CanonicalBytes() const;
  std::vector<std::uint8_t> Serialize() const;
  static Coin Deserialize(const std::vector<std::uint8_t>& b);
};

/// Record of an identified (baseline) debit — the privacy leak we measure.
struct DebitRecord {
  std::string account;
  std::string payee;
  std::uint64_t amount = 0;
  std::uint64_t timestamp_s = 0;
};

/// Bank-side configuration.
struct PaymentProviderConfig {
  /// Number of deposit shards. 0 keeps the classic single-threaded
  /// spent-serial set; N > 0 spins up a server::ServerRuntime whose N
  /// workers own the serial partitions, so coin double-spend checks
  /// shard like the provider's spent set instead of serializing at the
  /// bank. Single deposits route through the same shards, so batched
  /// and unbatched traffic can never double-credit one serial.
  std::size_t deposit_shards = 0;
  /// Per-shard bounded-queue capacity (coins). DepositBatch calls that
  /// would overflow a shard queue are shed with Status::kOverloaded.
  std::size_t deposit_queue_capacity = 4096;
  /// Streaming deposit window: how many StreamDepositBatch batches may
  /// sit between submit and commit before the oldest is forced through.
  std::size_t max_batches_in_flight = 4;
};

/// The bank / payment provider actor.
class PaymentProvider {
 public:
  /// One signing key per denomination (a blind signature cannot carry the
  /// denomination in the message — the key *is* the denomination).
  PaymentProvider(std::size_t modulus_bits, bignum::RandomSource* rng,
                  const PaymentProviderConfig& config = PaymentProviderConfig());
  ~PaymentProvider();

  /// Supported coin denominations, ascending.
  static const std::vector<std::uint32_t>& Denominations();

  /// Verification key for \p denomination. Throws for unknown values.
  const crypto::RsaPublicKey& DenominationKey(std::uint32_t denomination) const;

  /// Opens an account with an initial balance.
  void OpenAccount(const std::string& account, std::uint64_t balance);

  std::uint64_t Balance(const std::string& account) const;

  /// Identified withdrawal: debits \p account by \p denomination and blind-
  /// signs the coin request. The bank learns who withdrew how much, but not
  /// the coin serial.
  Status Withdraw(const std::string& account, std::uint32_t denomination,
                  const bignum::BigInt& blinded, bignum::BigInt* blind_sig);

  /// Anonymous deposit by a merchant. Verifies the coin, rejects double
  /// spends by serial, credits \p merchant_account. With deposit shards
  /// the serial check serializes on the coin's home shard (never shed),
  /// exactly like one item of a DepositBatch.
  Status Deposit(const Coin& coin, const std::string& merchant_account);

  /// One decoded batched-deposit item (matches the wire DepositRequest).
  struct DepositItem {
    Coin coin;
    std::string merchant_account;
  };

  /// Deposits a whole batch through the batch pipeline:
  /// verify (ONE screened same-key verification per denomination group,
  /// cached Montgomery contexts), mutate (serial inserts on each coin's
  /// home shard when deposit_shards > 0 — the backpressure point),
  /// commit (account credits, serialized on the dispatch thread).
  /// Per-item statuses are index-aligned and match Deposit() item for
  /// item; a duplicate serial — within the batch or across batches and
  /// single deposits — yields exactly one credit, every repeat a typed
  /// kDoubleSpend. Items shed by a full shard queue (only possible when
  /// \p shed_on_full) return kOverloaded with no trace: the serial is
  /// not burned and the coin may be re-deposited.
  std::vector<Status> DepositBatch(const std::vector<DepositItem>& items,
                                   bool shed_on_full = true);

  // -- streaming deposits (stage-pipelined submission) -------------------

  /// Streaming submission of one deposit batch through the bank's
  /// server::StagedBatchPipeline (DepositBatch is the same path with the
  /// window closed on one batch: it first commits every streamed batch
  /// still in flight). Verify and the serial-shard mutate run
  /// inline (so cross-batch double-spend resolution stays submission-
  /// ordered); the account-credit commit is deferred until the in-flight
  /// window fills or FlushDeposits() runs, at which point \p on_done
  /// receives the index-aligned statuses. Deposits have no issue stage,
  /// so the win here is the deferred-commit window, not signer fan-out.
  /// Serial: for a fixed submission order the statuses and resulting
  /// balances are identical to calling DepositBatch per batch. An empty
  /// batch never enters the pipeline: on_done({}) runs at once.
  void StreamDepositBatch(std::vector<DepositItem> items,
                          std::function<void(std::vector<Status>)> on_done,
                          bool shed_on_full = true);

  /// Commits every in-flight streamed deposit batch (oldest first) and
  /// fires the pending callbacks. Returns the aggregate busy timings.
  server::BatchPipelineTimings FlushDeposits();

  /// Streamed deposit batches submitted but not yet committed.
  std::size_t StreamingDepositsInFlight() const {
    return staged_ != nullptr ? staged_->InFlight() : 0;
  }

  /// The deposit shard runtime, or null when deposit_shards == 0.
  const server::ServerRuntime* DepositRuntime() const {
    return runtime_.get();
  }

  /// Wires tracing + metrics into the deposit pipeline (and the deposit
  /// runtime's queue accounting). Same contract as
  /// ContentProvider::set_observability.
  void set_observability(const obs::Sink& sink, const std::string& prefix = "");

  /// Baseline identified debit: moves funds and records the transaction.
  Status DirectDebit(const std::string& account, const std::string& payee,
                     std::uint64_t amount, std::uint64_t timestamp_s);

  /// The identified-transaction log (baseline privacy-leak accounting).
  const std::vector<DebitRecord>& DebitLog() const { return debit_log_; }

  /// Number of coins deposited (audit).
  std::uint64_t DepositedCoins() const { return deposited_coins_; }
  /// Number of rejected double-spend attempts.
  std::uint64_t DoubleSpendAttempts() const { return double_spend_attempts_; }

 private:
  /// Serial-set insert for one coin: kOk (fresh) or kDoubleSpend,
  /// routed through the shard runtime when configured.
  Status SpendSerial(const Coin& coin);
  static rel::LicenseId SerialKey(const Coin& coin);

  /// The one body behind DepositBatch and StreamDepositBatch: boxes the
  /// batch (a streamed batch outlives the submitting call), builds its
  /// plan and hands it to staged_ — SubmitSync when \p sync, Submit otherwise.
  struct DepositBatchState;
  void SubmitDeposit(std::vector<DepositItem> items,
                     std::function<void(std::vector<Status>)> on_done,
                     bool shed_on_full, bool sync);

  PaymentProviderConfig config_;
  bignum::RandomSource* rng_;
  std::map<std::uint32_t, crypto::RsaPrivateKey> denom_keys_;
  std::map<std::uint32_t, crypto::RsaPublicKey> denom_pub_;
  std::map<std::string, std::uint64_t> accounts_;
  store::SpentSet spent_serials_;  ///< unsharded path; unused with runtime_
  std::unique_ptr<server::ServerRuntime> runtime_;  ///< sharded path
  /// Every deposit batch's orchestrator (no signer pool: deposits sign
  /// nothing). Members declared after it die first, so the destructor
  /// drains it explicitly.
  std::unique_ptr<server::StagedBatchPipeline> staged_;
  server::BatchVerifier verifier_;
  std::vector<DebitRecord> debit_log_;
  std::uint64_t deposited_coins_ = 0;
  std::uint64_t double_spend_attempts_ = 0;
  server::PipelineObs obs_deposit_;  ///< null endpoints = off
};

/// Client-side helper: splits \p amount into available denominations,
/// largest first. Returns empty when \p amount is 0.
std::vector<std::uint32_t> PlanCoins(std::uint64_t amount);

}  // namespace core
}  // namespace p2drm

#endif  // P2DRM_CORE_PAYMENT_H_
