#include "core/payment.h"

#include <algorithm>
#include <stdexcept>

#include "core/metrics.h"
#include "crypto/blind_rsa.h"
#include "net/codec.h"
#include "server/batch_pipeline.h"

namespace p2drm {
namespace core {

std::vector<std::uint8_t> Coin::CanonicalBytes() const {
  net::ByteWriter w;
  w.U8(0x21);  // domain tag: coin
  w.Fixed(serial);
  w.U32(denomination);
  return w.Take();
}

std::vector<std::uint8_t> Coin::Serialize() const {
  net::ByteWriter w;
  w.Fixed(serial);
  w.U32(denomination);
  w.Blob(signature);
  return w.Take();
}

Coin Coin::Deserialize(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  Coin c;
  c.serial = r.Fixed<16>();
  c.denomination = r.U32();
  c.signature = r.Blob();
  r.ExpectEnd();
  return c;
}

const std::vector<std::uint32_t>& PaymentProvider::Denominations() {
  static const std::vector<std::uint32_t> kDenoms = {1, 2, 5, 10, 20, 50, 100};
  return kDenoms;
}

PaymentProvider::PaymentProvider(std::size_t modulus_bits,
                                 bignum::RandomSource* rng,
                                 const PaymentProviderConfig& config)
    : config_(config), rng_(rng) {
  for (std::uint32_t d : Denominations()) {
    denom_keys_.emplace(d, crypto::GenerateRsaKey(modulus_bits, rng));
    denom_pub_.emplace(d, denom_keys_.at(d).PublicKey());
    GlobalOps().keygen += 1;
  }
  if (config_.deposit_shards > 0) {
    server::ServerRuntimeConfig rt;
    rt.shard_count = config_.deposit_shards;
    rt.queue_capacity = config_.deposit_queue_capacity;
    runtime_ = std::make_unique<server::ServerRuntime>(rt);
  }
  // Deposits never fan out to a signer pool (there is no issue stage);
  // the batch pipeline orders their stages and, for streamed batches,
  // provides the deferred-commit window.
  server::StagedBatchPipeline::Config staged;
  staged.max_batches_in_flight = config_.max_batches_in_flight;
  staged_ = std::make_unique<server::StagedBatchPipeline>(std::move(staged));
}

PaymentProvider::~PaymentProvider() {
  // Streamed deposits still in flight credit accounts_ and bump the
  // counters and obs hooks — members declared after staged_, so they die
  // before it. Drain the pipeline while every member is alive.
  staged_->Flush();
}

rel::LicenseId PaymentProvider::SerialKey(const Coin& coin) {
  rel::LicenseId key;
  key.bytes = coin.serial;
  return key;
}

Status PaymentProvider::SpendSerial(const Coin& coin) {
  Status s = runtime_ != nullptr
                 ? runtime_->SpendOne(SerialKey(coin))
                 : (spent_serials_.Insert(SerialKey(coin))
                        ? Status::kOk
                        : Status::kAlreadySpent);
  return s == Status::kOk ? Status::kOk : Status::kDoubleSpend;
}

const crypto::RsaPublicKey& PaymentProvider::DenominationKey(
    std::uint32_t denomination) const {
  auto it = denom_pub_.find(denomination);
  if (it == denom_pub_.end()) {
    throw std::invalid_argument("PaymentProvider: unknown denomination");
  }
  return it->second;
}

void PaymentProvider::OpenAccount(const std::string& account,
                                  std::uint64_t balance) {
  accounts_[account] = balance;
}

std::uint64_t PaymentProvider::Balance(const std::string& account) const {
  auto it = accounts_.find(account);
  if (it == accounts_.end()) {
    throw std::invalid_argument("PaymentProvider: unknown account");
  }
  return it->second;
}

Status PaymentProvider::Withdraw(const std::string& account,
                                 std::uint32_t denomination,
                                 const bignum::BigInt& blinded,
                                 bignum::BigInt* blind_sig) {
  auto acct = accounts_.find(account);
  if (acct == accounts_.end()) return Status::kUnknownAccount;
  auto key = denom_keys_.find(denomination);
  if (key == denom_keys_.end()) return Status::kBadRequest;
  if (acct->second < denomination) return Status::kInsufficientFunds;

  acct->second -= denomination;
  GlobalOps().blind_sign += 1;
  *blind_sig = crypto::SignBlinded(key->second, blinded);
  return Status::kOk;
}

Status PaymentProvider::Deposit(const Coin& coin,
                                const std::string& merchant_account) {
  auto acct = accounts_.find(merchant_account);
  if (acct == accounts_.end()) return Status::kUnknownAccount;
  auto key = denom_pub_.find(coin.denomination);
  if (key == denom_pub_.end()) return Status::kBadRequest;

  GlobalOps().verify += 1;
  if (!verifier_.VerifyFdh(key->second, coin.CanonicalBytes(),
                           coin.signature)) {
    return Status::kPaymentFailed;
  }
  Status spend = SpendSerial(coin);
  if (spend != Status::kOk) {
    ++double_spend_attempts_;
    return spend;
  }
  acct->second += coin.denomination;
  ++deposited_coins_;
  return Status::kOk;
}

/// Per-batch deposit state, heap-boxed so the streaming path can keep a
/// batch alive between submission and its deferred commit.
struct PaymentProvider::DepositBatchState {
  std::vector<DepositItem> items;
  std::vector<Status> out;
};

void PaymentProvider::SubmitDeposit(
    std::vector<DepositItem> items,
    std::function<void(std::vector<Status>)> on_done, bool shed_on_full,
    bool sync) {
  auto st = std::make_shared<DepositBatchState>();
  st->items = std::move(items);
  st->out.assign(st->items.size(), Status::kBadRequest);

  server::BatchPlan plan;
  plan.item_count = st->items.size();

  // Verify: account/denomination lookups, then ONE screened same-key
  // verification per denomination group — the key *is* the
  // denomination, so a retail batch collapses to a handful of group
  // checks on cached Montgomery contexts.
  plan.verify = [this, st] {
    const std::vector<DepositItem>& items = st->items;
    server::BatchVerifierStats before = verifier_.stats();
    std::map<std::uint32_t, std::vector<std::size_t>> by_denom;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (accounts_.find(items[i].merchant_account) == accounts_.end()) {
        st->out[i] = Status::kUnknownAccount;
      } else if (denom_pub_.find(items[i].coin.denomination) ==
                 denom_pub_.end()) {
        st->out[i] = Status::kBadRequest;
      } else {
        by_denom[items[i].coin.denomination].push_back(i);
      }
    }
    std::vector<std::size_t> eligible;
    eligible.reserve(items.size());
    for (const auto& [denom, group] : by_denom) {
      std::vector<std::vector<std::uint8_t>> msgs;
      std::vector<std::vector<std::uint8_t>> sigs;
      msgs.reserve(group.size());
      sigs.reserve(group.size());
      for (std::size_t i : group) {
        msgs.push_back(items[i].coin.CanonicalBytes());
        sigs.push_back(items[i].coin.signature);
      }
      std::vector<bool> ok =
          verifier_.VerifySameKeyBatch(denom_pub_.at(denom), msgs, sigs, rng_);
      for (std::size_t j = 0; j < group.size(); ++j) {
        if (ok[j]) {
          eligible.push_back(group[j]);
        } else {
          st->out[group[j]] = Status::kPaymentFailed;
        }
      }
    }
    // Grouping by denomination reorders; the pipeline's stage contracts
    // (fork draw, commit) are index-ordered, so restore that order.
    std::sort(eligible.begin(), eligible.end());
    GlobalOps().verify += (verifier_.stats() - before).full_verifies;
    return eligible;
  };

  // Mutate: serial inserts on each coin's home shard — duplicates
  // within the batch resolve there in index order, first wins.
  plan.mutate = [this, st, shed_on_full](const std::vector<std::size_t>& eligible) {
    const std::vector<DepositItem>& items = st->items;
    std::vector<Status> spend;
    if (runtime_ != nullptr) {
      std::vector<rel::LicenseId> serials;
      serials.reserve(eligible.size());
      for (std::size_t i : eligible) serials.push_back(SerialKey(items[i].coin));
      runtime_->SpendBatch(serials, &spend, shed_on_full);
    } else {
      spend.reserve(eligible.size());
      for (std::size_t i : eligible) {
        spend.push_back(spent_serials_.Insert(SerialKey(items[i].coin))
                            ? Status::kOk
                            : Status::kAlreadySpent);
      }
    }
    // A repeated serial is a double-spent coin, not a re-redeemed
    // license: surface the typed payment status.
    for (Status& s : spend) {
      if (s == Status::kAlreadySpent) s = Status::kDoubleSpend;
    }
    return spend;
  };

  // No issue stage: deposits sign nothing. Commit credits the accounts
  // on the dispatch thread in index order — exactly one credit per
  // fresh serial.
  plan.commit = [this, st](std::size_t k, std::size_t i, Status) {
    (void)k;
    const DepositItem& item = st->items[i];
    accounts_[item.merchant_account] += item.coin.denomination;
    ++deposited_coins_;
    st->out[i] = Status::kOk;
  };
  plan.reject = [this, st](std::size_t i, Status s) {
    if (s == Status::kDoubleSpend) ++double_spend_attempts_;
    st->out[i] = s;
  };
  auto on_commit = [st, cb = std::move(on_done)] {
    if (cb != nullptr) cb(std::move(st->out));
  };
  if (sync) {
    staged_->SubmitSync(std::move(plan), &obs_deposit_,
                        std::move(on_commit));
  } else {
    staged_->Submit(std::move(plan), &obs_deposit_, std::move(on_commit));
  }
}

std::vector<Status> PaymentProvider::DepositBatch(
    const std::vector<DepositItem>& items, bool shed_on_full) {
  std::vector<Status> out;
  SubmitDeposit(items, [&out](std::vector<Status> r) { out = std::move(r); },
                shed_on_full, /*sync=*/true);
  return out;
}

void PaymentProvider::StreamDepositBatch(
    std::vector<DepositItem> items,
    std::function<void(std::vector<Status>)> on_done, bool shed_on_full) {
  SubmitDeposit(std::move(items), std::move(on_done), shed_on_full,
                /*sync=*/false);
}

server::BatchPipelineTimings PaymentProvider::FlushDeposits() {
  return staged_->Flush();
}

void PaymentProvider::set_observability(const obs::Sink& sink,
                                        const std::string& prefix) {
  obs_deposit_.tracer = sink.tracer;
  obs_deposit_.registry = sink.registry;
  obs_deposit_.span_verify = "deposit.verify";
  obs_deposit_.span_mutate = "deposit.spend";
  obs_deposit_.span_issue = "deposit.issue";
  if (sink.registry != nullptr) {
    const std::string base = prefix + "pipeline.deposit.";
    obs_deposit_.hist_verify_us = sink.registry->Histogram(base + "verify_us");
    obs_deposit_.hist_mutate_us = sink.registry->Histogram(base + "mutate_us");
    obs_deposit_.hist_issue_us = sink.registry->Histogram(base + "issue_us");
    obs_deposit_.ctr_items = sink.registry->Counter(base + "items");
    obs_deposit_.ctr_shed = sink.registry->Counter(base + "shed");
  }
  if (runtime_ != nullptr) {
    runtime_->set_observability(sink.registry, prefix + "deposit_runtime.");
  }
}

Status PaymentProvider::DirectDebit(const std::string& account,
                                    const std::string& payee,
                                    std::uint64_t amount,
                                    std::uint64_t timestamp_s) {
  auto acct = accounts_.find(account);
  if (acct == accounts_.end()) return Status::kUnknownAccount;
  auto to = accounts_.find(payee);
  if (to == accounts_.end()) return Status::kUnknownAccount;
  if (acct->second < amount) return Status::kInsufficientFunds;
  acct->second -= amount;
  to->second += amount;
  debit_log_.push_back(DebitRecord{account, payee, amount, timestamp_s});
  return Status::kOk;
}

std::vector<std::uint32_t> PlanCoins(std::uint64_t amount) {
  std::vector<std::uint32_t> plan;
  const auto& denoms = PaymentProvider::Denominations();
  for (auto it = denoms.rbegin(); it != denoms.rend(); ++it) {
    while (amount >= *it) {
      plan.push_back(*it);
      amount -= *it;
    }
  }
  return plan;  // denominations include 1, so amount is now 0
}

}  // namespace core
}  // namespace p2drm
