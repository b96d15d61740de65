#ifndef P2DRM_CORE_CONTENT_PROVIDER_H_
#define P2DRM_CORE_CONTENT_PROVIDER_H_

/// \file content_provider.h
/// \brief The content provider (CP): catalog, license issuance, anonymous
/// license exchange, and fraud handling.
///
/// Privacy posture: on the P2DRM paths the CP sees pseudonym certificates
/// and bearer coins only. Its persistent state — the spent-license set and
/// the redemption journal — contains no user identities. The identified
/// knowledge it *could* accumulate is exactly what the baseline
/// implementation (baseline/identified_drm.h) records, and the RF-4 bench
/// compares the two.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bignum/random_source.h"
#include "core/certificates.h"
#include "core/clock.h"
#include "core/errors.h"
#include "core/payment.h"
#include "core/ttp.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "rel/license.h"
#include "server/batch_pipeline.h"
#include "server/batch_verifier.h"
#include "server/server_runtime.h"
#include "server/signer_pool.h"
#include "server/stage_executor.h"
#include "store/append_log.h"
#include "store/revocation_list.h"
#include "store/spent_set.h"

namespace p2drm {
namespace core {

/// Content as distributed: ChaCha20-encrypted body plus its nonce.
/// Freely copyable — useless without a license.
struct EncryptedContent {
  rel::ContentId content_id = 0;
  std::array<std::uint8_t, 12> nonce{};
  std::vector<std::uint8_t> ciphertext;
};

/// A catalog entry as advertised to buyers.
struct Offer {
  rel::ContentId content_id = 0;
  std::string title;
  std::uint64_t price = 0;
  rel::Rights rights;
};

/// Content provider configuration.
struct ContentProviderConfig {
  std::size_t signing_key_bits = 1024;
  /// Spent-set storage engine; kFlat (docs/storage.md) unless a bench is
  /// ablating against the legacy backends.
  store::SpentSetBackend spent_backend = store::SpentSetBackend::kFlat;
  store::CrlStrategy crl_strategy = store::CrlStrategy::kBloomFronted;
  std::size_t expected_crl_entries = 1024;
  /// When non-empty, every spent license id is journaled here and the
  /// spent set is rebuilt from the journal at construction. With
  /// redeem_shards > 0 the path becomes the shard-segment prefix
  /// (`<path>.shard<k>`); an existing unsharded journal at the path
  /// itself is replayed once as a migration.
  std::string spent_journal_path;
  /// Number of redemption shards. 0 keeps the classic single-threaded
  /// spent set; N > 0 spins up a server::ServerRuntime whose N shard
  /// workers own the spent-set partitions and journal segments. Shards
  /// only spend: where signatures run is signer_pool_size's business.
  std::size_t redeem_shards = 0;
  /// Per-shard bounded-queue capacity (items). Batch redemptions that
  /// would overflow a shard queue are shed with Status::kOverloaded.
  std::size_t redeem_queue_capacity = 4096;
  /// Work-stealing signer pool for the issue stage (server::SignerPool),
  /// sized independently of redeem_shards. N > 0 runs EVERY batch issue
  /// stage — synchronous and streamed alike — on N pool workers; 0 signs
  /// inline on the dispatch thread.
  std::size_t signer_pool_size = 0;
  /// Streaming window: StreamRedeemBatch/StreamPurchaseBatch/
  /// StreamExchangeBatch keep at most this many batches in flight before
  /// Submit blocks on the oldest batch's commit.
  std::size_t max_batches_in_flight = 4;
};

/// The content provider actor.
class ContentProvider {
 public:
  /// \param bank where coins are deposited (merchant account "cp")
  /// \param ca_key trusted CA verification key
  ContentProvider(const ContentProviderConfig& config,
                  bignum::RandomSource* rng, const Clock* clock,
                  PaymentProvider* bank, crypto::RsaPublicKey ca_key);
  ~ContentProvider();

  /// License/transcript verification key.
  const crypto::RsaPublicKey& PublicKey() const { return public_key_; }

  // -- catalog ------------------------------------------------------------

  /// Encrypts and publishes \p plaintext; returns its content id.
  rel::ContentId Publish(const std::string& title,
                         const std::vector<std::uint8_t>& plaintext,
                         std::uint64_t price, const rel::Rights& rights);

  std::vector<Offer> Catalog() const;
  std::optional<Offer> FindOffer(rel::ContentId id) const;

  /// The encrypted content blob (available to anyone; superdistribution).
  const EncryptedContent& GetContent(rel::ContentId id) const;

  // -- purchase (P2DRM path) -----------------------------------------------

  struct PurchaseResult {
    Status status = Status::kBadRequest;
    rel::License license;  ///< valid when status == kOk
  };

  /// Anonymous purchase: verifies the pseudonym certificate, checks the
  /// CRL, deposits the coins, and issues a license bound to the pseudonym
  /// key with the content key wrapped to it.
  PurchaseResult Purchase(const PseudonymCertificate& buyer,
                          rel::ContentId content_id,
                          const std::vector<Coin>& payment);

  /// One decoded batched-purchase item.
  struct PurchaseItem {
    PseudonymCertificate buyer;
    rel::ContentId content_id = 0;
    std::vector<Coin> payment;
  };

  /// Purchases a whole batch through the batch pipeline
  /// (server::StagedBatchPipeline): verify (memoized pseudonym-cert
  /// checks + one shared CRL pass), mutate (ONE
  /// PaymentProvider::DepositBatch call covering every item's coins, so
  /// double-spend checks shard at the bank), issue (license signing and
  /// content-key wrapping on the signer pool when signer_pool_size > 0).
  /// Per-item statuses are index-aligned and
  /// match Purchase() item for item, except that repeated certificates
  /// inside or across batches cost one verification instead of one
  /// each, and a failing coin no longer stops the rest of its item's
  /// coins from being deposited (bearer-instrument rules make both
  /// reading equally unrecoverable for the buyer; the statuses agree).
  std::vector<PurchaseResult> PurchaseBatch(
      const std::vector<PurchaseItem>& items);

  // -- private transfer ----------------------------------------------------

  struct ExchangeResult {
    Status status = Status::kBadRequest;
    rel::License anonymous_license;  ///< valid when status == kOk
  };

  /// Giver side of a transfer: swaps a transferable key-bound license for
  /// an anonymous bearer license. \p possession_sig is the pseudonym-key
  /// signature over TransferChallengeBytes(license.id). Semantically a
  /// batch of one: the spend routes through the shard runtime when
  /// configured and the bearer is signed from the same id-tagged RNG
  /// fork ExchangeBatch draws, so single and batched exchanges are
  /// deterministic across shard counts.
  ExchangeResult ExchangeForAnonymous(
      const rel::License& license,
      const std::vector<std::uint8_t>& possession_sig);

  /// One decoded batched-exchange item.
  struct ExchangeItem {
    rel::License license;
    std::vector<std::uint8_t> possession_sig;
  };

  /// Exchanges a whole batch through the batch pipeline: verify (ONE
  /// screened same-key verification covers every license signature,
  /// cached-context possession checks, one shared CRL pass over the
  /// bound keys), mutate (old-license retirement on each id's home shard
  /// — the backpressure point), issue (bearer-license signing on the
  /// signer pool, one id-tagged RNG fork per item drawn dispatch-side in
  /// index order). Per-item results are index-aligned and match
  /// ExchangeForAnonymous item for item, plus
  /// kOverloaded for items shed by a full shard queue (no trace; the
  /// held license is untouched and the client may retry).
  std::vector<ExchangeResult> ExchangeBatch(
      const std::vector<ExchangeItem>& items);

  /// Taker side: redeems an anonymous license for a key-bound one. Exactly
  /// one redemption per license id; the second attempt yields
  /// kAlreadySpent *and* a fraud-evidence record.
  PurchaseResult RedeemAnonymous(const rel::License& anonymous_license,
                                 const PseudonymCertificate& taker);

  /// The challenge a giver's card must sign to prove key possession.
  static std::vector<std::uint8_t> TransferChallengeBytes(
      const rel::LicenseId& id);

  // -- batched redemption (server fast path) --------------------------------

  /// One decoded batch item: an anonymous license plus the taker's
  /// pseudonym certificate.
  struct RedeemItem {
    rel::License anonymous_license;
    PseudonymCertificate taker;
  };

  /// Redeems a whole batch with amortized server-side crypto: ONE
  /// screened same-key verification covers every license signature, each
  /// distinct pseudonym certificate is verified once, one shared pass
  /// answers the CRL probes, the spent-set updates run on the shard
  /// runtime when redeem_shards > 0 and the signing on the signer pool
  /// when signer_pool_size > 0. Per-item results are index-aligned
  /// and match RedeemAnonymous item for item, with one addition: an item
  /// shed by a full shard queue returns Status::kOverloaded and leaves no
  /// trace in the spent set.
  std::vector<PurchaseResult> RedeemAnonymousBatch(
      const std::vector<RedeemItem>& items);

  // -- streaming pipeline (cross-batch stage overlap) -----------------------
  //
  // Every batch call runs on one server::StagedBatchPipeline. The
  // Stream* entry points run verify/mutate/draw_fork inline (so sheds
  // surface immediately and the DRBG stream stays in submit order), fan
  // issue out to the signer pool, and defer the commit tail — batch
  // B+1's verify overlaps batch B's signing. A synchronous batch call is
  // the same path with the window closed on that one batch: it first
  // commits every streamed batch still in flight (running their
  // on_done), then submits, joins and commits its own batch. An empty
  // batch never enters the pipeline: on_done({}) runs at once and no
  // in-flight batch is committed. Results arrive through
  // \p on_done, invoked on the caller's own thread at the batch's commit
  // point (inside a later Stream* call once the in-flight window fills,
  // or inside FlushStreaming). Ordering contract: commits apply in
  // submit order, each batch's tail in index order, and under a fixed
  // seed the issued bytes are identical to calling the synchronous
  // batch entry points in the same order. Batches streamed concurrently
  // must be commit-independent (an exchange whose verify needs an
  // issued-key-map entry a still-in-flight batch will write must wait
  // for FlushStreaming).

  /// Streams one redemption batch into the pipeline. \p on_done may be
  /// null (results dropped).
  void StreamRedeemBatch(std::vector<RedeemItem> items,
                         std::function<void(std::vector<PurchaseResult>)>
                             on_done);
  /// Streams one purchase batch. The coin deposits still run inline
  /// inside this call (blocking, like PurchaseBatch).
  void StreamPurchaseBatch(std::vector<PurchaseItem> items,
                           std::function<void(std::vector<PurchaseResult>)>
                               on_done);
  /// Streams one exchange batch.
  void StreamExchangeBatch(std::vector<ExchangeItem> items,
                           std::function<void(std::vector<ExchangeResult>)>
                               on_done);

  // FlushStreaming() — declared below PipelineTimings — joins and
  // commits every in-flight streamed batch and closes the window.

  /// Streamed batches submitted but not yet committed.
  std::size_t StreamingInFlight() const {
    return staged_ != nullptr ? staged_->InFlight() : 0;
  }

  /// The dedicated signer pool, or null when signer_pool_size == 0.
  const server::SignerPool* Pool() const { return signer_pool_.get(); }
  server::SignerPool* Pool() { return signer_pool_.get(); }

  /// Amortization counters for the batch path (RT-2 accounting).
  server::BatchVerifierStats BatchVerifyStats() const {
    return verifier_.stats();
  }

  /// Wall-clock breakdown of the most recent RedeemAnonymousBatch /
  /// PurchaseBatch / ExchangeBatch call by pipeline stage
  /// (microseconds): dispatch-side spans, `issue_us` from the fork draw
  /// to the join. With a signer pool it shrinks toward the slowest
  /// worker's share, while the signing work itself accrues on the pool
  /// workers' sim clocks (SignerPool::WorkerSimClockUs), which is what
  /// the scaling bench reports as signatures/second.
  /// Under FlushStreaming the stage numbers are busy sums across the
  /// window's batches and `makespan_us` is the window's wall span —
  /// cross-batch overlap makes makespan < verify+spend+issue.
  struct PipelineTimings {
    double verify_us = 0;  ///< batch-verify stage (signatures, certs, CRL)
    double spend_us = 0;   ///< shard-serialized state stage (spend set / bank)
    double issue_us = 0;   ///< signing stage (transcripts + fresh licenses)
    double makespan_us = 0;  ///< end-to-end span (excludes the commit tail)
    std::size_t items = 0;
  };
  PipelineTimings LastBatchTimings() const { return last_timings_; }

  /// Joins and commits every in-flight streamed batch (running their
  /// on_done callbacks) and closes the timing window. The returned
  /// timings — also visible via LastBatchTimings — carry per-stage BUSY
  /// sums over the window plus `makespan_us` (first Stream* call to
  /// Flush end); overlap shows as makespan < verify+spend+issue.
  PipelineTimings FlushStreaming();

  /// Injects the clock behind LastBatchTimings and the signer pool
  /// workers' sim-clock accrual (null = steady_clock). A deterministic
  /// source pins stage timings in tests; a virtual-time harness can
  /// express service cost in the same timebase as wire latency. With a
  /// signer pool the source is called from the pool workers during the
  /// issue stage, so it must be thread-safe.
  void set_time_source(server::TimeSourceUs now_us) {
    time_source_ = std::move(now_us);
  }

  /// Wires tracing + metrics into every batch pipeline this provider
  /// runs (and into the shard runtime's queue accounting, when one
  /// exists). \p prefix namespaces the registry metric names — e.g.
  /// "shards4." in a bench that runs one provider per shard count.
  /// Call before traffic starts; idempotent (re-registration by name
  /// reuses the existing ids). Null sink members switch that endpoint
  /// off.
  void set_observability(const obs::Sink& sink, const std::string& prefix = "");

  /// First-seen redemption transcript for \p id (the fraud-evidence
  /// basis), if that id has been freshly redeemed.
  std::optional<RedemptionTranscript> TranscriptFor(
      const rel::LicenseId& id) const;

  /// The shard runtime, or null when redeem_shards == 0. The non-const
  /// overload exists for harnesses (tests, benches) that park or probe
  /// the workers directly.
  const server::ServerRuntime* Runtime() const { return runtime_.get(); }
  server::ServerRuntime* Runtime() { return runtime_.get(); }

  // -- revocation & fraud ---------------------------------------------------

  const store::RevocationList& Crl() const { return crl_; }

  /// Revokes a pseudonym key (or device id) directly.
  void Revoke(const rel::KeyFingerprint& key_id);

  /// Fraud evidence accumulated from double-redemption attempts, ready to
  /// hand to the TTP. Calling this drains the queue.
  std::vector<FraudEvidence> TakeFraudEvidence();

  // -- introspection --------------------------------------------------------

  std::size_t SpentSetSize() const {
    return runtime_ != nullptr ? runtime_->SpentSize() : spent_.Size();
  }
  std::uint64_t LicensesIssued() const { return licenses_issued_; }
  std::uint64_t DoubleRedemptionAttempts() const {
    return double_redemptions_;
  }
  /// Number of distinct pseudonyms seen across all operations — the upper
  /// bound on what a curious CP can profile (RF-4).
  std::size_t DistinctPseudonymsSeen() const { return pseudonyms_seen_.size(); }

 private:
  /// What the pure signing stage of a redemption produces. The transcript
  /// is always built (it is the fraud-evidence basis for double
  /// redemptions); the license only when the spend was fresh.
  struct IssuedRedemption {
    Status status = Status::kBadRequest;
    rel::License license;  ///< valid when status == kOk
    RedemptionTranscript transcript;
  };

  /// Pure part of license issuance: fresh id, content-key wrapping and
  /// issuer signature, drawing randomness only from \p rng. Const and
  /// thread-safe against concurrent callers (reads catalog_/key_/clock_,
  /// which never change during a batch); pair with RecordIssued on the
  /// dispatch thread.
  rel::License BuildLicense(rel::LicenseKind kind, rel::ContentId content_id,
                            const rel::Rights& rights,
                            const crypto::RsaPublicKey* bound_key,
                            bignum::RandomSource* rng) const;
  /// State-mutating part of issuance: issued-key map + counters.
  void RecordIssued(const rel::License& license,
                    const crypto::RsaPublicKey* bound_key);
  /// Dispatch-thread convenience: BuildLicense(rng_) + RecordIssued.
  rel::License IssueLicense(rel::LicenseKind kind, rel::ContentId content_id,
                            const rel::Rights& rights,
                            const crypto::RsaPublicKey* bound_key);
  RedemptionTranscript MakeTranscript(const rel::LicenseId& id,
                                      const PseudonymCertificate& cert) const;
  bool MarkSpent(const rel::LicenseId& id);
  /// Per-item RNG fork for the redemption issue stage, domain-tagged by
  /// the redeemed id. Forked on the dispatch thread in item-index order,
  /// so a fixed seed yields bit-identical issuance whether the signing
  /// then runs inline or on the signer pool.
  crypto::HmacDrbg RedeemIssueRng(const rel::LicenseId& redeemed_id);
  /// Per-item RNG fork for the purchase issue stage, domain-tagged by a
  /// monotonic issuance nonce assigned in item-index order.
  crypto::HmacDrbg PurchaseIssueRng();
  /// Per-item RNG fork for the exchange issue stage, domain-tagged by
  /// the retired license id (same rule as RedeemIssueRng).
  crypto::HmacDrbg ExchangeIssueRng(const rel::LicenseId& retired_id);
  /// Shared mutate stage of the redeem and exchange pipelines: marks
  /// \p eligible items' license ids spent on their home shards
  /// (SpendBatch, shedding) or serially, in index order.
  std::vector<Status> SpendEligible(
      const std::vector<std::size_t>& eligible,
      const std::function<const rel::LicenseId&(std::size_t)>& id_of);
  /// Pure signing stage of one redemption: transcript always, fresh
  /// license when \p spend_status is kOk. Const and thread-safe (runs on
  /// the signer pool); all randomness comes from \p rng.
  IssuedRedemption SignRedemption(const RedeemItem& item, Status spend_status,
                                  bignum::RandomSource* rng) const;
  /// State-mutating stage of one redemption: transcript map, fraud
  /// evidence, pseudonym bookkeeping, issued-key map. Dispatch thread
  /// only, in item-index order.
  PurchaseResult CommitRedemption(const RedeemItem& item,
                                  IssuedRedemption issued);

  // One body per X / StreamX pair: boxes the batch (a streamed batch
  // outlives its call, so everything its plan touches lives in the
  // shared_ptr-held state the plan's callbacks capture), builds the
  // flow's plan and dispatches it; \p on_done receives the index-aligned
  // results at the batch's commit.
  struct RedeemBatchState;
  struct PurchaseBatchState;
  struct ExchangeBatchState;
  void SubmitRedeem(std::vector<RedeemItem> items,
                    std::function<void(std::vector<PurchaseResult>)> on_done,
                    bool sync);
  void SubmitPurchase(std::vector<PurchaseItem> items,
                      std::function<void(std::vector<PurchaseResult>)> on_done,
                      bool sync);
  void SubmitExchange(std::vector<ExchangeItem> items,
                      std::function<void(std::vector<ExchangeResult>)> on_done,
                      bool sync);
  /// staged_->SubmitSync when \p sync (recording LastBatchTimings), else
  /// staged_->Submit.
  void Dispatch(server::BatchPlan plan, const server::PipelineObs* pobs,
                std::function<void()> on_commit, bool sync);

  ContentProviderConfig config_;
  bignum::RandomSource* rng_;
  const Clock* clock_;
  PaymentProvider* bank_;
  crypto::RsaPublicKey ca_key_;
  crypto::RsaPrivateKey key_;
  crypto::RsaPublicKey public_key_;

  struct CatalogEntry {
    Offer offer;
    std::array<std::uint8_t, 32> content_key;
    EncryptedContent encrypted;
  };
  std::map<rel::ContentId, CatalogEntry> catalog_;
  rel::ContentId next_content_id_ = 1;

  store::SpentSet spent_;  ///< unsharded path; unused when runtime_ is set
  std::unique_ptr<store::AppendLog> spent_journal_;
  std::unique_ptr<server::ServerRuntime> runtime_;  ///< sharded path
  std::unique_ptr<server::SignerPool> signer_pool_;  ///< issue executor
  /// Every batch call's orchestrator. Members declared after it die
  /// first, so the destructor drains it explicitly.
  std::unique_ptr<server::StagedBatchPipeline> staged_;
  server::BatchVerifier verifier_;
  store::RevocationList crl_;
  // First-seen transcript per redeemed license id (fraud evidence basis).
  std::map<rel::LicenseId, RedemptionTranscript> redemption_transcripts_;
  std::vector<FraudEvidence> fraud_queue_;
  std::set<rel::KeyFingerprint> pseudonyms_seen_;
  // Pseudonym keys licenses were bound to, by fingerprint. Needed to verify
  // transfer possession proofs (the license itself carries only the
  // fingerprint).
  std::map<rel::KeyFingerprint, crypto::RsaPublicKey> issued_keys_;

  std::uint64_t licenses_issued_ = 0;
  std::uint64_t double_redemptions_ = 0;
  std::uint64_t purchase_issue_nonce_ = 0;  ///< purchase fork domain tags
  PipelineTimings last_timings_;
  server::TimeSourceUs time_source_;  ///< null = steady_clock
  // Per-flow pipeline observability (null endpoints = off).
  server::PipelineObs obs_redeem_;
  server::PipelineObs obs_purchase_;
  server::PipelineObs obs_exchange_;
};

}  // namespace core
}  // namespace p2drm

#endif  // P2DRM_CORE_CONTENT_PROVIDER_H_
