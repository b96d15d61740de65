#include "core/content_provider.h"

#include <chrono>
#include <numeric>
#include <stdexcept>

#include "core/metrics.h"
#include "crypto/chacha20.h"
#include "net/codec.h"

namespace p2drm {
namespace core {

namespace {

/// Merchant account name at the bank.
constexpr const char* kMerchantAccount = "cp";

/// Issue-stage RNG fork domain bytes (distinct per pipeline).
constexpr std::uint8_t kRedeemIssueDomain = 0x52;    // 'R'
constexpr std::uint8_t kPurchaseIssueDomain = 0x50;  // 'P'
constexpr std::uint8_t kExchangeIssueDomain = 0x58;  // 'X'

ContentProvider::PipelineTimings ToPipelineTimings(
    const server::BatchPipelineTimings& t) {
  ContentProvider::PipelineTimings out;
  out.verify_us = t.verify_us;
  out.spend_us = t.mutate_us;
  out.issue_us = t.issue_us;
  out.makespan_us = t.makespan_us;
  out.items = t.items;
  return out;
}

}  // namespace

ContentProvider::ContentProvider(const ContentProviderConfig& config,
                                 bignum::RandomSource* rng, const Clock* clock,
                                 PaymentProvider* bank,
                                 crypto::RsaPublicKey ca_key)
    : config_(config),
      rng_(rng),
      clock_(clock),
      bank_(bank),
      ca_key_(std::move(ca_key)),
      key_(crypto::GenerateRsaKey(config.signing_key_bits, rng)),
      public_key_(key_.PublicKey()),
      spent_(config.spent_backend),
      crl_(config.crl_strategy, config.expected_crl_entries) {
  GlobalOps().keygen += 1;
  if (bank_ != nullptr) bank_->OpenAccount(kMerchantAccount, 0);
  if (config_.redeem_shards > 0) {
    // Sharded path: the runtime owns the spent-set partitions and the
    // per-shard journal segments (it also replays any legacy unsharded
    // journal at the configured path).
    server::ServerRuntimeConfig rt;
    rt.shard_count = config_.redeem_shards;
    rt.queue_capacity = config_.redeem_queue_capacity;
    rt.spent_backend = config_.spent_backend;
    rt.journal_path_prefix = config_.spent_journal_path;
    runtime_ = std::make_unique<server::ServerRuntime>(rt);
  }
  if (config_.signer_pool_size > 0) {
    signer_pool_ =
        std::make_unique<server::SignerPool>(config_.signer_pool_size);
  }
  // The batch pipeline carries every batch call, synchronous or
  // streamed; without a pool its issue stage runs inline. The time
  // lambda resolves time_source_ at call time so set_time_source keeps
  // working after construction.
  server::StagedBatchPipeline::Config staged;
  staged.pool = signer_pool_.get();
  staged.max_batches_in_flight = config_.max_batches_in_flight;
  staged.now_us = [this] {
    return time_source_ != nullptr ? time_source_() : server::SteadyNowUs();
  };
  staged_ = std::make_unique<server::StagedBatchPipeline>(std::move(staged));
  if (config_.redeem_shards == 0 && !config_.spent_journal_path.empty()) {
    // Crash recovery: rebuild the spent set from the journal, then reopen
    // the journal for appending.
    store::AppendLog::Replay(
        config_.spent_journal_path,
        [this](const std::vector<std::uint8_t>& record) {
          // One id per record, or a group-committed block of N ids
          // (AppendMany) — split by the fixed id width either way.
          if (record.empty() || record.size() % 16 != 0) return;
          for (std::size_t off = 0; off < record.size(); off += 16) {
            rel::LicenseId id;
            std::copy(record.begin() + static_cast<std::ptrdiff_t>(off),
                      record.begin() + static_cast<std::ptrdiff_t>(off + 16),
                      id.bytes.begin());
            spent_.Insert(id);
          }
        });
    spent_journal_ =
        std::make_unique<store::AppendLog>(config_.spent_journal_path);
  }
}

ContentProvider::~ContentProvider() {
  // Streamed batches still in flight commit into the transcript map, the
  // counters and the obs hooks — members declared after staged_, so they
  // die before it. Drain the pipeline while every member is alive.
  staged_->Flush();
}

rel::ContentId ContentProvider::Publish(
    const std::string& title, const std::vector<std::uint8_t>& plaintext,
    std::uint64_t price, const rel::Rights& rights) {
  CatalogEntry entry;
  entry.offer.content_id = next_content_id_++;
  entry.offer.title = title;
  entry.offer.price = price;
  entry.offer.rights = rights;

  rng_->Fill(entry.content_key.data(), entry.content_key.size());
  entry.encrypted.content_id = entry.offer.content_id;
  rng_->Fill(entry.encrypted.nonce.data(), entry.encrypted.nonce.size());
  crypto::ChaCha20 cipher(entry.content_key, entry.encrypted.nonce);
  entry.encrypted.ciphertext = cipher.Crypt(plaintext);

  rel::ContentId id = entry.offer.content_id;
  catalog_.emplace(id, std::move(entry));
  return id;
}

std::vector<Offer> ContentProvider::Catalog() const {
  std::vector<Offer> offers;
  offers.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_) {
    (void)id;
    offers.push_back(entry.offer);
  }
  return offers;
}

std::optional<Offer> ContentProvider::FindOffer(rel::ContentId id) const {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) return std::nullopt;
  return it->second.offer;
}

const EncryptedContent& ContentProvider::GetContent(rel::ContentId id) const {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) {
    throw std::out_of_range("ContentProvider: unknown content id");
  }
  return it->second.encrypted;
}

rel::License ContentProvider::BuildLicense(
    rel::LicenseKind kind, rel::ContentId content_id,
    const rel::Rights& rights, const crypto::RsaPublicKey* bound_key,
    bignum::RandomSource* rng) const {
  auto it = catalog_.find(content_id);
  if (it == catalog_.end()) {
    throw std::out_of_range("ContentProvider: unknown content id");
  }
  rel::License lic;
  rng->Fill(lic.id.bytes.data(), lic.id.bytes.size());
  lic.kind = kind;
  lic.content_id = content_id;
  lic.rights = rights;
  lic.issued_at_s = clock_->NowEpochSeconds();
  if (kind == rel::LicenseKind::kUserBound) {
    lic.bound_key = bound_key->Fingerprint();
    std::vector<std::uint8_t> ck(it->second.content_key.begin(),
                                 it->second.content_key.end());
    GlobalOps().hybrid_enc += 1;
    lic.wrapped_content_key =
        crypto::RsaHybridEncrypt(*bound_key, ck, rng).Serialize();
  }
  GlobalOps().sign += 1;
  lic.issuer_signature = crypto::RsaSignFdh(key_, lic.CanonicalBytes());
  return lic;
}

void ContentProvider::RecordIssued(const rel::License& license,
                                   const crypto::RsaPublicKey* bound_key) {
  if (license.kind == rel::LicenseKind::kUserBound) {
    issued_keys_.emplace(license.bound_key, *bound_key);
  }
  ++licenses_issued_;
}

rel::License ContentProvider::IssueLicense(
    rel::LicenseKind kind, rel::ContentId content_id,
    const rel::Rights& rights, const crypto::RsaPublicKey* bound_key) {
  rel::License lic = BuildLicense(kind, content_id, rights, bound_key, rng_);
  RecordIssued(lic, bound_key);
  return lic;
}

crypto::HmacDrbg ContentProvider::RedeemIssueRng(
    const rel::LicenseId& redeemed_id) {
  std::vector<std::uint8_t> tag;
  tag.reserve(1 + redeemed_id.bytes.size());
  tag.push_back(kRedeemIssueDomain);
  tag.insert(tag.end(), redeemed_id.bytes.begin(), redeemed_id.bytes.end());
  return crypto::ForkRandom(rng_, tag);
}

crypto::HmacDrbg ContentProvider::PurchaseIssueRng() {
  std::uint64_t nonce = purchase_issue_nonce_++;
  std::vector<std::uint8_t> tag(9);
  tag[0] = kPurchaseIssueDomain;
  for (int i = 0; i < 8; ++i) {
    tag[1 + i] = static_cast<std::uint8_t>(nonce >> (8 * (7 - i)));
  }
  return crypto::ForkRandom(rng_, tag);
}

crypto::HmacDrbg ContentProvider::ExchangeIssueRng(
    const rel::LicenseId& retired_id) {
  std::vector<std::uint8_t> tag;
  tag.reserve(1 + retired_id.bytes.size());
  tag.push_back(kExchangeIssueDomain);
  tag.insert(tag.end(), retired_id.bytes.begin(), retired_id.bytes.end());
  return crypto::ForkRandom(rng_, tag);
}

std::vector<Status> ContentProvider::SpendEligible(
    const std::vector<std::size_t>& eligible,
    const std::function<const rel::LicenseId&(std::size_t)>& id_of) {
  std::vector<Status> spend;
  if (runtime_ != nullptr) {
    // Shard-serialized: duplicates inside one batch resolve on their
    // home shard in index order, first occurrence wins; a full shard
    // queue sheds its slice with kOverloaded before any state change.
    std::vector<rel::LicenseId> ids;
    ids.reserve(eligible.size());
    for (std::size_t i : eligible) ids.push_back(id_of(i));
    runtime_->SpendBatch(ids, &spend, /*shed_on_full=*/true);
  } else {
    // Unsharded path: one batch probe over the flat table (in index
    // order, so in-batch duplicates keep first-wins semantics) and one
    // group-committed journal block for the fresh subset.
    const std::size_t n = eligible.size();
    std::vector<rel::LicenseId> ids(n);
    for (std::size_t j = 0; j < n; ++j) ids[j] = id_of(eligible[j]);
    std::vector<std::uint8_t> fresh(n);
    spent_.InsertBatch(ids.data(), n, fresh.data());
    if (spent_journal_ != nullptr) {
      std::vector<std::uint8_t> blob;
      blob.reserve(n * 16);
      for (std::size_t j = 0; j < n; ++j) {
        if (fresh[j]) {
          blob.insert(blob.end(), ids[j].bytes.begin(), ids[j].bytes.end());
        }
      }
      if (!blob.empty()) {
        spent_journal_->AppendMany(blob.data(), 16, blob.size() / 16);
      }
    }
    spend.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      spend[j] = fresh[j] ? Status::kOk : Status::kAlreadySpent;
    }
  }
  return spend;
}

ContentProvider::PurchaseResult ContentProvider::Purchase(
    const PseudonymCertificate& buyer, rel::ContentId content_id,
    const std::vector<Coin>& payment) {
  PurchaseResult result;

  GlobalOps().verify += 1;
  if (!VerifyPseudonymCert(ca_key_, buyer)) {
    result.status = Status::kBadCertificate;
    return result;
  }
  if (crl_.IsRevoked(buyer.KeyId())) {
    result.status = Status::kRevoked;
    return result;
  }
  auto offer = FindOffer(content_id);
  if (!offer.has_value()) {
    result.status = Status::kUnknownContent;
    return result;
  }
  std::uint64_t paid = std::accumulate(
      payment.begin(), payment.end(), std::uint64_t{0},
      [](std::uint64_t acc, const Coin& c) { return acc + c.denomination; });
  if (paid != offer->price) {
    result.status = Status::kWrongPrice;
    return result;
  }
  // Deposit the coins. A failure mid-way rejects the purchase; already-
  // deposited coins stay deposited (the buyer attempted fraud or sent a
  // bad coin — the paper's bearer-instrument semantics).
  for (const Coin& coin : payment) {
    Status s = bank_->Deposit(coin, kMerchantAccount);
    if (s != Status::kOk) {
      result.status = s;
      return result;
    }
  }

  pseudonyms_seen_.insert(buyer.KeyId());
  result.license = IssueLicense(rel::LicenseKind::kUserBound, content_id,
                                offer->rights, &buyer.pseudonym_key);
  result.status = Status::kOk;
  return result;
}

/// Per-batch purchase state, heap-boxed because a streamed batch outlives
/// the call that submitted it.
struct ContentProvider::PurchaseBatchState {
  std::vector<PurchaseItem> items;
  std::vector<PurchaseResult> out;
  std::vector<rel::Rights> rights_by_item;
  std::vector<crypto::HmacDrbg> forks;
  std::vector<rel::License> issued;
};

void ContentProvider::SubmitPurchase(
    std::vector<PurchaseItem> items,
    std::function<void(std::vector<PurchaseResult>)> on_done, bool sync) {
  auto st = std::make_shared<PurchaseBatchState>();
  st->items = std::move(items);
  st->out.resize(st->items.size());
  st->rights_by_item.resize(st->items.size());

  server::BatchPlan plan;
  plan.item_count = st->items.size();

  // Verify: each distinct pseudonym certificate costs one full
  // verification (memoized within and across batches), then one shared
  // CRL probe pass covers every surviving item.
  plan.verify = [this, st] {
    const std::vector<PurchaseItem>& items = st->items;
    server::BatchVerifierStats before = verifier_.stats();
    std::vector<std::size_t> crl_items;
    std::vector<rel::KeyFingerprint> crl_keys;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!verifier_.VerifyPseudonymCert(ca_key_, items[i].buyer)) {
        st->out[i].status = Status::kBadCertificate;
      } else {
        crl_items.push_back(i);
        crl_keys.push_back(items[i].buyer.KeyId());
      }
    }
    std::vector<bool> revoked = verifier_.CrlProbePass(crl_, crl_keys);
    std::vector<std::size_t> eligible;
    eligible.reserve(crl_items.size());
    for (std::size_t j = 0; j < crl_items.size(); ++j) {
      if (revoked[j]) {
        st->out[crl_items[j]].status = Status::kRevoked;
      } else {
        eligible.push_back(crl_items[j]);
      }
    }
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: catalog/price validation, then ONE batched deposit covering
  // every surviving item's coins — double-spend checks shard at the
  // bank instead of serializing per coin. Blocking (never shed): a
  // purchase item must not come back kOverloaded with some of its coins
  // already deposited. Per-item status is the first failing coin's, as
  // in Purchase(); already-deposited coins stay deposited
  // (bearer-instrument rules).
  plan.mutate = [this, st](const std::vector<std::size_t>& eligible) {
    const std::vector<PurchaseItem>& items = st->items;
    std::vector<Status> status(eligible.size(), Status::kOk);
    std::vector<PaymentProvider::DepositItem> coins;
    std::vector<std::size_t> coin_owner;  // coin -> index into eligible
    for (std::size_t j = 0; j < eligible.size(); ++j) {
      std::size_t i = eligible[j];
      auto offer = FindOffer(items[i].content_id);
      if (!offer.has_value()) {
        status[j] = Status::kUnknownContent;
        continue;
      }
      std::uint64_t paid = std::accumulate(
          items[i].payment.begin(), items[i].payment.end(), std::uint64_t{0},
          [](std::uint64_t acc, const Coin& c) {
            return acc + c.denomination;
          });
      if (paid != offer->price) {
        status[j] = Status::kWrongPrice;
        continue;
      }
      st->rights_by_item[i] = offer->rights;
      for (const Coin& coin : items[i].payment) {
        coins.push_back(PaymentProvider::DepositItem{coin, kMerchantAccount});
        coin_owner.push_back(j);
      }
    }
    if (!coins.empty()) {
      std::vector<Status> coin_st =
          bank_->DepositBatch(coins, /*shed_on_full=*/false);
      for (std::size_t c = 0; c < coins.size(); ++c) {
        if (coin_st[c] != Status::kOk &&
            status[coin_owner[c]] == Status::kOk) {
          status[coin_owner[c]] = coin_st[c];
        }
      }
    }
    return status;
  };

  // Issue: license signing and content-key wrapping on the signer pool
  // (or inline), one nonce-tagged RNG fork per item drawn in index order
  // on the dispatch thread.
  plan.begin_issue = [st](std::size_t n) {
    st->forks.reserve(n);
    st->issued.resize(n);
  };
  plan.draw_fork = [this, st](std::size_t k, std::size_t i) {
    (void)k;
    (void)i;
    st->forks.push_back(PurchaseIssueRng());
  };
  plan.issue = [this, st](std::size_t k, std::size_t i, Status) {
    const std::vector<PurchaseItem>& items = st->items;
    st->issued[k] = BuildLicense(rel::LicenseKind::kUserBound,
                                 items[i].content_id, st->rights_by_item[i],
                                 &items[i].buyer.pseudonym_key,
                                 &st->forks[k]);
  };

  // Commit — issued-key map, pseudonym bookkeeping and counters, on the
  // dispatch thread in index order.
  plan.commit = [this, st](std::size_t k, std::size_t i, Status) {
    const std::vector<PurchaseItem>& items = st->items;
    pseudonyms_seen_.insert(items[i].buyer.KeyId());
    RecordIssued(st->issued[k], &items[i].buyer.pseudonym_key);
    st->out[i].license = std::move(st->issued[k]);
    st->out[i].status = Status::kOk;
  };
  plan.reject = [st](std::size_t i, Status s) { st->out[i].status = s; };
  Dispatch(std::move(plan), &obs_purchase_, [st, cb = std::move(on_done)] {
    if (cb != nullptr) cb(std::move(st->out));
  }, sync);
}

std::vector<ContentProvider::PurchaseResult> ContentProvider::PurchaseBatch(
    const std::vector<PurchaseItem>& items) {
  std::vector<PurchaseResult> out;
  SubmitPurchase(items, [&out](auto r) { out = std::move(r); }, /*sync=*/true);
  return out;
}

void ContentProvider::StreamPurchaseBatch(
    std::vector<PurchaseItem> items,
    std::function<void(std::vector<PurchaseResult>)> on_done) {
  SubmitPurchase(std::move(items), std::move(on_done), /*sync=*/false);
}

void ContentProvider::Dispatch(server::BatchPlan plan,
                               const server::PipelineObs* pobs,
                               std::function<void()> on_commit, bool sync) {
  if (sync) {
    last_timings_ = ToPipelineTimings(
        staged_->SubmitSync(std::move(plan), pobs, std::move(on_commit)));
  } else {
    staged_->Submit(std::move(plan), pobs, std::move(on_commit));
  }
}

void ContentProvider::set_observability(const obs::Sink& sink,
                                        const std::string& prefix) {
  auto wire = [&](server::PipelineObs* p, const char* flow,
                  const char* span_verify, const char* span_mutate,
                  const char* span_issue) {
    p->tracer = sink.tracer;
    p->registry = sink.registry;
    p->span_verify = span_verify;
    p->span_mutate = span_mutate;
    p->span_issue = span_issue;
    if (sink.registry != nullptr) {
      const std::string base = prefix + "pipeline." + flow + ".";
      p->hist_verify_us = sink.registry->Histogram(base + "verify_us");
      p->hist_mutate_us = sink.registry->Histogram(base + "mutate_us");
      p->hist_issue_us = sink.registry->Histogram(base + "issue_us");
      p->ctr_items = sink.registry->Counter(base + "items");
      p->ctr_shed = sink.registry->Counter(base + "shed");
    }
  };
  wire(&obs_redeem_, "redeem", "redeem.verify", "redeem.spend",
       "redeem.issue");
  wire(&obs_purchase_, "purchase", "purchase.verify", "purchase.mutate",
       "purchase.issue");
  wire(&obs_exchange_, "exchange", "exchange.verify", "exchange.spend",
       "exchange.issue");
  if (runtime_ != nullptr) {
    runtime_->set_observability(sink.registry, prefix + "runtime.");
  }
  if (signer_pool_ != nullptr) {
    signer_pool_->set_observability(sink.registry, prefix + "signer_pool.");
  }
  if (staged_ != nullptr) {
    staged_->set_observability(sink.registry, prefix + "streaming.");
  }
}

std::vector<std::uint8_t> ContentProvider::TransferChallengeBytes(
    const rel::LicenseId& id) {
  net::ByteWriter w;
  w.U8(0x31);  // domain tag: transfer possession proof
  w.Fixed(id.bytes);
  return w.Take();
}

bool ContentProvider::MarkSpent(const rel::LicenseId& id) {
  if (runtime_ != nullptr) {
    // Serialize on the id's home shard, exactly like the batch path, so
    // single-item and batched redemptions can never double-spend one id.
    return runtime_->SpendOne(id) == Status::kOk;
  }
  if (!spent_.Insert(id)) return false;
  if (spent_journal_ != nullptr) {
    spent_journal_->Append(
        std::vector<std::uint8_t>(id.bytes.begin(), id.bytes.end()));
  }
  return true;
}

ContentProvider::ExchangeResult ContentProvider::ExchangeForAnonymous(
    const rel::License& license,
    const std::vector<std::uint8_t>& possession_sig) {
  ExchangeResult result;

  // The license must be ours, key-bound, and transferable.
  GlobalOps().verify += 1;
  if (!crypto::RsaVerifyFdh(public_key_, license.CanonicalBytes(),
                            license.issuer_signature)) {
    result.status = Status::kBadSignature;
    return result;
  }
  if (license.kind != rel::LicenseKind::kUserBound) {
    result.status = Status::kBadRequest;
    return result;
  }
  if (!license.rights.allow_transfer) {
    result.status = Status::kNotTransferable;
    return result;
  }
  if (crl_.IsRevoked(license.bound_key)) {
    result.status = Status::kRevoked;
    return result;
  }

  // Possession proof: the giver's card signs the transfer challenge with
  // the pseudonym key the license is bound to. The CP learns only that the
  // caller holds that key, not who they are. The verification key is the
  // one the license was issued against, remembered by fingerprint.
  auto key_it = issued_keys_.find(license.bound_key);
  if (key_it == issued_keys_.end()) {
    result.status = Status::kBadRequest;
    return result;
  }
  GlobalOps().verify += 1;
  if (!crypto::RsaVerifyFdh(key_it->second,
                            TransferChallengeBytes(license.id),
                            possession_sig)) {
    result.status = Status::kBadSignature;
    return result;
  }

  // Retire the old license; a spent id can never be exchanged again.
  if (!MarkSpent(license.id)) {
    result.status = Status::kAlreadySpent;
    return result;
  }

  // Batch of one: the bearer is signed from the same id-tagged fork
  // ExchangeBatch draws, so a fixed seed issues identical bytes at any
  // shard count.
  crypto::HmacDrbg issue_rng = ExchangeIssueRng(license.id);
  result.anonymous_license =
      BuildLicense(rel::LicenseKind::kAnonymous, license.content_id,
                   license.rights, nullptr, &issue_rng);
  RecordIssued(result.anonymous_license, nullptr);
  result.status = Status::kOk;
  return result;
}

/// Per-batch exchange state; see PurchaseBatchState for the boxing rule.
struct ContentProvider::ExchangeBatchState {
  std::vector<ExchangeItem> items;
  std::vector<ExchangeResult> out;
  std::vector<crypto::HmacDrbg> forks;
  std::vector<rel::License> bearer;
};

void ContentProvider::SubmitExchange(
    std::vector<ExchangeItem> items,
    std::function<void(std::vector<ExchangeResult>)> on_done, bool sync) {
  auto st = std::make_shared<ExchangeBatchState>();
  st->items = std::move(items);
  st->out.resize(st->items.size());

  server::BatchPlan plan;
  plan.item_count = st->items.size();

  // Verify: one screened same-key verification covers every issuer
  // signature (all licenses are ours), one shared pass answers the CRL
  // probes on the bound keys, and the per-item possession proofs reuse
  // the verifier's cached Montgomery contexts. Checks run in the exact
  // order ExchangeForAnonymous applies them, so per-item statuses match.
  // NOTE the issued_keys_ lookups: exchange verify reads state exchange
  // commits write, so exchange batches that depend on each other's
  // commits must not be streamed concurrently.
  plan.verify = [this, st] {
    const std::vector<ExchangeItem>& items = st->items;
    server::BatchVerifierStats before = verifier_.stats();
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::vector<std::uint8_t>> sigs;
    msgs.reserve(items.size());
    sigs.reserve(items.size());
    for (const ExchangeItem& item : items) {
      msgs.push_back(item.license.CanonicalBytes());
      sigs.push_back(item.license.issuer_signature);
    }
    std::vector<bool> sig_ok =
        verifier_.VerifySameKeyBatch(public_key_, msgs, sigs, rng_);

    std::vector<std::size_t> crl_items;
    std::vector<rel::KeyFingerprint> crl_keys;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const rel::License& lic = items[i].license;
      if (!sig_ok[i]) {
        st->out[i].status = Status::kBadSignature;
      } else if (lic.kind != rel::LicenseKind::kUserBound) {
        st->out[i].status = Status::kBadRequest;
      } else if (!lic.rights.allow_transfer) {
        st->out[i].status = Status::kNotTransferable;
      } else {
        crl_items.push_back(i);
        crl_keys.push_back(lic.bound_key);
      }
    }
    std::vector<bool> revoked = verifier_.CrlProbePass(crl_, crl_keys);

    std::vector<std::size_t> eligible;
    eligible.reserve(crl_items.size());
    for (std::size_t j = 0; j < crl_items.size(); ++j) {
      std::size_t i = crl_items[j];
      if (revoked[j]) {
        st->out[i].status = Status::kRevoked;
        continue;
      }
      auto key_it = issued_keys_.find(items[i].license.bound_key);
      if (key_it == issued_keys_.end()) {
        st->out[i].status = Status::kBadRequest;
        continue;
      }
      if (!verifier_.VerifyFdh(key_it->second,
                               TransferChallengeBytes(items[i].license.id),
                               items[i].possession_sig)) {
        st->out[i].status = Status::kBadSignature;
        continue;
      }
      eligible.push_back(i);
    }
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: retire the old licenses on their home shards. Shed items
  // keep their bearer-exchangeable license untouched.
  plan.mutate = [this, st](const std::vector<std::size_t>& eligible) {
    return SpendEligible(eligible,
                         [st](std::size_t i) -> const rel::LicenseId& {
                           return st->items[i].license.id;
                         });
  };

  // Issue: bearer-license signing on the signer pool (or inline), one
  // id-tagged fork per item drawn dispatch-side in index order.
  plan.begin_issue = [st](std::size_t n) {
    st->forks.reserve(n);
    st->bearer.resize(n);
  };
  plan.draw_fork = [this, st](std::size_t k, std::size_t i) {
    (void)k;
    st->forks.push_back(ExchangeIssueRng(st->items[i].license.id));
  };
  plan.issue = [this, st](std::size_t k, std::size_t i, Status) {
    const rel::License& lic = st->items[i].license;
    st->bearer[k] = BuildLicense(rel::LicenseKind::kAnonymous,
                                 lic.content_id, lic.rights, nullptr,
                                 &st->forks[k]);
  };
  plan.commit = [this, st](std::size_t k, std::size_t i, Status) {
    RecordIssued(st->bearer[k], nullptr);
    st->out[i].anonymous_license = std::move(st->bearer[k]);
    st->out[i].status = Status::kOk;
  };
  plan.reject = [st](std::size_t i, Status s) { st->out[i].status = s; };
  Dispatch(std::move(plan), &obs_exchange_, [st, cb = std::move(on_done)] {
    if (cb != nullptr) cb(std::move(st->out));
  }, sync);
}

std::vector<ContentProvider::ExchangeResult> ContentProvider::ExchangeBatch(
    const std::vector<ExchangeItem>& items) {
  std::vector<ExchangeResult> out;
  SubmitExchange(items, [&out](auto r) { out = std::move(r); }, /*sync=*/true);
  return out;
}

void ContentProvider::StreamExchangeBatch(
    std::vector<ExchangeItem> items,
    std::function<void(std::vector<ExchangeResult>)> on_done) {
  SubmitExchange(std::move(items), std::move(on_done), /*sync=*/false);
}

RedemptionTranscript ContentProvider::MakeTranscript(
    const rel::LicenseId& id, const PseudonymCertificate& cert) const {
  RedemptionTranscript t;
  t.license_id = id;
  t.pseudonym_cert = cert.Serialize();
  t.timestamp_s = clock_->NowEpochSeconds();
  GlobalOps().sign += 1;
  t.cp_signature = crypto::RsaSignFdh(key_, t.CanonicalBytes());
  return t;
}

ContentProvider::PurchaseResult ContentProvider::RedeemAnonymous(
    const rel::License& anonymous_license, const PseudonymCertificate& taker) {
  PurchaseResult result;

  GlobalOps().verify += 1;
  if (!crypto::RsaVerifyFdh(public_key_, anonymous_license.CanonicalBytes(),
                            anonymous_license.issuer_signature)) {
    result.status = Status::kBadSignature;
    return result;
  }
  if (anonymous_license.kind != rel::LicenseKind::kAnonymous) {
    result.status = Status::kBadRequest;
    return result;
  }
  GlobalOps().verify += 1;
  if (!VerifyPseudonymCert(ca_key_, taker)) {
    result.status = Status::kBadCertificate;
    return result;
  }
  if (crl_.IsRevoked(taker.KeyId())) {
    result.status = Status::kRevoked;
    return result;
  }

  // Same three stages as the batch path, one item wide: spend, then sign
  // with the id-tagged RNG fork, then commit. A single redemption and a
  // batch of one are therefore bit-identical under a fixed seed.
  Status spend = MarkSpent(anonymous_license.id) ? Status::kOk
                                                 : Status::kAlreadySpent;
  RedeemItem item{anonymous_license, taker};
  crypto::HmacDrbg issue_rng = RedeemIssueRng(anonymous_license.id);
  IssuedRedemption issued = SignRedemption(item, spend, &issue_rng);
  return CommitRedemption(item, std::move(issued));
}

ContentProvider::IssuedRedemption ContentProvider::SignRedemption(
    const RedeemItem& item, Status spend_status,
    bignum::RandomSource* rng) const {
  IssuedRedemption out;
  // The transcript is signed even for a double redemption — it is the
  // second half of the fraud evidence handed to the TTP.
  out.transcript = MakeTranscript(item.anonymous_license.id, item.taker);
  if (spend_status == Status::kAlreadySpent) {
    out.status = Status::kAlreadySpent;
    return out;
  }
  out.license = BuildLicense(rel::LicenseKind::kUserBound,
                             item.anonymous_license.content_id,
                             item.anonymous_license.rights,
                             &item.taker.pseudonym_key, rng);
  out.status = Status::kOk;
  return out;
}

ContentProvider::PurchaseResult ContentProvider::CommitRedemption(
    const RedeemItem& item, IssuedRedemption issued) {
  PurchaseResult result;
  if (issued.status == Status::kAlreadySpent) {
    // Double redemption: build fraud evidence from the first transcript.
    ++double_redemptions_;
    auto first = redemption_transcripts_.find(item.anonymous_license.id);
    if (first != redemption_transcripts_.end()) {
      FraudEvidence evidence;
      evidence.first = first->second;
      evidence.second = std::move(issued.transcript);
      fraud_queue_.push_back(std::move(evidence));
    }
    result.status = Status::kAlreadySpent;
    return result;
  }
  redemption_transcripts_.emplace(item.anonymous_license.id,
                                  std::move(issued.transcript));

  pseudonyms_seen_.insert(item.taker.KeyId());
  RecordIssued(issued.license, &item.taker.pseudonym_key);
  result.license = std::move(issued.license);
  result.status = Status::kOk;
  return result;
}

/// Per-batch redemption state; see PurchaseBatchState for the boxing
/// rule.
struct ContentProvider::RedeemBatchState {
  std::vector<RedeemItem> items;
  std::vector<PurchaseResult> out;
  std::vector<crypto::HmacDrbg> forks;
  std::vector<IssuedRedemption> issued;
};

void ContentProvider::SubmitRedeem(
    std::vector<RedeemItem> items,
    std::function<void(std::vector<PurchaseResult>)> on_done, bool sync) {
  auto st = std::make_shared<RedeemBatchState>();
  st->items = std::move(items);
  st->out.resize(st->items.size());

  server::BatchPlan plan;
  plan.item_count = st->items.size();

  // Verify, amortized: every license in the batch is signed by our own
  // key, so one screened same-key verification covers the whole group;
  // each distinct pseudonym certificate is verified once; one shared
  // pass answers the CRL probes. The RT-2 table counts the
  // verifications actually performed, which is the whole point of the
  // batch path.
  plan.verify = [this, st] {
    const std::vector<RedeemItem>& items = st->items;
    server::BatchVerifierStats before = verifier_.stats();
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<std::vector<std::uint8_t>> sigs;
    msgs.reserve(items.size());
    sigs.reserve(items.size());
    for (const RedeemItem& item : items) {
      msgs.push_back(item.anonymous_license.CanonicalBytes());
      sigs.push_back(item.anonymous_license.issuer_signature);
    }
    std::vector<bool> sig_ok =
        verifier_.VerifySameKeyBatch(public_key_, msgs, sigs, rng_);

    std::vector<std::size_t> crl_items;
    std::vector<rel::KeyFingerprint> crl_keys;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!sig_ok[i]) {
        st->out[i].status = Status::kBadSignature;
      } else if (items[i].anonymous_license.kind !=
                 rel::LicenseKind::kAnonymous) {
        st->out[i].status = Status::kBadRequest;
      } else if (!verifier_.VerifyPseudonymCert(ca_key_, items[i].taker)) {
        st->out[i].status = Status::kBadCertificate;
      } else {
        crl_items.push_back(i);
        crl_keys.push_back(items[i].taker.KeyId());
      }
    }
    std::vector<bool> revoked = verifier_.CrlProbePass(crl_, crl_keys);
    std::vector<std::size_t> eligible;
    eligible.reserve(crl_items.size());
    for (std::size_t j = 0; j < crl_items.size(); ++j) {
      if (revoked[j]) {
        st->out[crl_items[j]].status = Status::kRevoked;
      } else {
        eligible.push_back(crl_items[j]);
      }
    }
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: shard-serialized spent-set updates on each id's home shard.
  plan.mutate = [this, st](const std::vector<std::size_t>& eligible) {
    return SpendEligible(eligible,
                         [st](std::size_t i) -> const rel::LicenseId& {
                           return st->items[i].anonymous_license.id;
                         });
  };
  // A detected double redemption still gets signed: the transcript is
  // the second half of the fraud evidence handed to the TTP.
  plan.proceed = [](Status s) { return s == Status::kAlreadySpent; };

  // Issue: transcript + fresh-license signing, the dominant per-item
  // private-key cost, fanned out to the signer pool (or inline).
  plan.begin_issue = [st](std::size_t n) {
    st->forks.reserve(n);
    st->issued.resize(n);
  };
  plan.draw_fork = [this, st](std::size_t k, std::size_t i) {
    (void)k;
    st->forks.push_back(RedeemIssueRng(st->items[i].anonymous_license.id));
  };
  plan.issue = [this, st](std::size_t k, std::size_t i, Status spend) {
    st->issued[k] = SignRedemption(st->items[i], spend, &st->forks[k]);
  };

  // Commit — state mutations on the dispatch thread, in index order:
  // transcript map, fraud evidence, pseudonym bookkeeping, counters.
  plan.commit = [this, st](std::size_t k, std::size_t i, Status) {
    st->out[i] = CommitRedemption(st->items[i], std::move(st->issued[k]));
  };
  plan.reject = [st](std::size_t i, Status s) { st->out[i].status = s; };
  Dispatch(std::move(plan), &obs_redeem_, [st, cb = std::move(on_done)] {
    if (cb != nullptr) cb(std::move(st->out));
  }, sync);
}

std::vector<ContentProvider::PurchaseResult>
ContentProvider::RedeemAnonymousBatch(const std::vector<RedeemItem>& items) {
  std::vector<PurchaseResult> out;
  SubmitRedeem(items, [&out](auto r) { out = std::move(r); }, /*sync=*/true);
  return out;
}

void ContentProvider::StreamRedeemBatch(
    std::vector<RedeemItem> items,
    std::function<void(std::vector<PurchaseResult>)> on_done) {
  SubmitRedeem(std::move(items), std::move(on_done), /*sync=*/false);
}

ContentProvider::PipelineTimings ContentProvider::FlushStreaming() {
  last_timings_ = ToPipelineTimings(staged_->Flush());
  return last_timings_;
}

std::optional<RedemptionTranscript> ContentProvider::TranscriptFor(
    const rel::LicenseId& id) const {
  auto it = redemption_transcripts_.find(id);
  if (it == redemption_transcripts_.end()) return std::nullopt;
  return it->second;
}

void ContentProvider::Revoke(const rel::KeyFingerprint& key_id) {
  crl_.Revoke(key_id);
}

std::vector<FraudEvidence> ContentProvider::TakeFraudEvidence() {
  std::vector<FraudEvidence> out = std::move(fraud_queue_);
  fraud_queue_.clear();
  return out;
}

}  // namespace core
}  // namespace p2drm
