// Sharded server runtime: routing, spend serialization under races,
// bounded-queue backpressure, journal segments, and the amortizing batch
// verifier — plus the content provider's batched redemption fast path.

#include "server/server_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <thread>
#include <unistd.h>

#include "core/certification_authority.h"
#include "core/content_provider.h"
#include "core/smartcard.h"
#include "core/ttp.h"
#include "crypto/blind_rsa.h"
#include "crypto/drbg.h"
#include "obs/registry.h"
#include "server/batch_verifier.h"
#include "server/shard_router.h"

namespace p2drm {
namespace server {
namespace {

using core::Status;

rel::LicenseId MakeId(std::uint64_t n) {
  rel::LicenseId id;
  for (int i = 0; i < 8; ++i) {
    id.bytes[i] = static_cast<std::uint8_t>(n >> (8 * (7 - i)));
  }
  id.bytes[15] = static_cast<std::uint8_t>(n * 37);
  return id;
}

// -- router ------------------------------------------------------------------

TEST(ShardRouterTest, DeterministicAndInRange) {
  ShardRouter router(4);
  for (std::uint64_t n = 0; n < 1000; ++n) {
    std::size_t s = router.ShardFor(MakeId(n));
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, router.ShardFor(MakeId(n)));  // stable
  }
}

TEST(ShardRouterTest, SpreadsCounterIds) {
  ShardRouter router(8);
  std::vector<std::size_t> hist(8, 0);
  for (std::uint64_t n = 0; n < 8000; ++n) {
    ++hist[router.ShardFor(MakeId(n))];
  }
  for (std::size_t count : hist) {
    EXPECT_GT(count, 500u);  // no empty or starved shard
  }
}

// -- spent-set shard ---------------------------------------------------------

TEST(SpentSetShardTest, InsertContainsAcrossBackends) {
  for (auto backend :
       {store::SpentSetBackend::kHashSet, store::SpentSetBackend::kSortedVector,
        store::SpentSetBackend::kLinearScan, store::SpentSetBackend::kFlat}) {
    store::SpentSetShard shard(backend);
    EXPECT_TRUE(shard.Insert(MakeId(1)));
    EXPECT_FALSE(shard.Insert(MakeId(1)));
    EXPECT_TRUE(shard.Contains(MakeId(1)));
    EXPECT_FALSE(shard.Contains(MakeId(2)));
    EXPECT_EQ(shard.Size(), 1u);
  }
}

TEST(SpentSetShardTest, HashMemoryCountsBucketArray) {
  store::SpentSetShard shard(store::SpentSetBackend::kHashSet);
  for (std::uint64_t n = 0; n < 1000; ++n) shard.Insert(MakeId(n));
  // At least the payload plus one pointer per element (node link) and
  // one pointer per bucket.
  std::size_t floor = 1000 * (sizeof(rel::LicenseId) + sizeof(void*));
  EXPECT_GT(shard.MemoryBytes(), floor);
}

// -- runtime: spend path -----------------------------------------------------

TEST(ServerRuntimeTest, SpendBatchStatuses) {
  ServerRuntimeConfig cfg;
  cfg.shard_count = 4;
  ServerRuntime rt(cfg);
  // Duplicate inside one batch: first occurrence wins.
  std::vector<rel::LicenseId> ids = {MakeId(1), MakeId(2), MakeId(1)};
  std::vector<Status> st;
  rt.SpendBatch(ids, &st);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0], Status::kOk);
  EXPECT_EQ(st[1], Status::kOk);
  EXPECT_EQ(st[2], Status::kAlreadySpent);
  // Replay across calls is also a double spend.
  EXPECT_EQ(rt.SpendOne(MakeId(2)), Status::kAlreadySpent);
  EXPECT_EQ(rt.SpendOne(MakeId(3)), Status::kOk);
  EXPECT_EQ(rt.SpentSize(), 3u);
  EXPECT_EQ(rt.Processed(), 5u);
}

TEST(ServerRuntimeTest, BlockingSpendReleasesItsWeightBeforeReturning) {
  // A one-item queue bound: an oversize two-id group is accepted only by
  // an empty queue. Once SpendOne has returned, its own finished task
  // must no longer count against the bound, so the shedding SpendBatch
  // that follows on the same thread is never shed.
  ServerRuntimeConfig cfg;
  cfg.shard_count = 1;
  cfg.queue_capacity = 1;
  ServerRuntime rt(cfg);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(rt.SpendOne(MakeId(3 * i)), Status::kOk);
    std::vector<Status> st;
    rt.SpendBatch({MakeId(3 * i + 1), MakeId(3 * i + 2)}, &st,
                  /*shed_on_full=*/true);
    ASSERT_EQ(st[0], Status::kOk) << "round " << i;
    ASSERT_EQ(st[1], Status::kOk) << "round " << i;
  }
  EXPECT_EQ(rt.Overloads(), 0u);
}

TEST(ServerRuntimeTest, ConcurrentDoubleRedeemWinsExactlyOnce) {
  // The race the sharded design must kill: the same license id submitted
  // from many client threads at once must succeed exactly once, while
  // unrelated traffic proceeds on every shard.
  ServerRuntimeConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 1 << 14;
  ServerRuntime rt(cfg);

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200;
  const rel::LicenseId hot = MakeId(0xdeadbeef);
  std::atomic<int> hot_wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<rel::LicenseId> ids;
      ids.push_back(hot);  // every thread races on the hot id...
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        // ...amid its own unique traffic.
        ids.push_back(MakeId(0x1000000ull * (t + 1) + n));
      }
      std::vector<Status> st;
      rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
      if (st[0] == Status::kOk) hot_wins.fetch_add(1);
      for (std::size_t i = 1; i < st.size(); ++i) {
        EXPECT_EQ(st[i], Status::kOk);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hot_wins.load(), 1);
  EXPECT_EQ(rt.SpentSize(), 1u + kThreads * kPerThread);
}

TEST(ServerRuntimeTest, BoundedQueueShedsWithOverloaded) {
  ServerRuntimeConfig cfg;
  cfg.shard_count = 2;
  cfg.queue_capacity = 8;
  ServerRuntime rt(cfg);

  // Park both workers so the queues cannot drain.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    rt.Submit(s, [gate](ShardContext&) { gate.wait(); });
  }
  std::vector<rel::LicenseId> flood;
  for (std::uint64_t n = 0; n < 256; ++n) flood.push_back(MakeId(n));
  std::vector<Status> st;
  rt.SpendBatch(flood, &st, /*shed_on_full=*/true);
  release.set_value();
  rt.Drain();

  std::size_t shed = 0;
  for (Status s : st) {
    if (s == Status::kOverloaded) ++shed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(rt.Overloads(), 0u);
  // Shed ids left no trace and can be retried successfully.
  std::vector<Status> retry;
  rt.SpendBatch(flood, &retry, /*shed_on_full=*/false);
  for (std::size_t i = 0; i < flood.size(); ++i) {
    EXPECT_EQ(retry[i],
              st[i] == Status::kOk ? Status::kAlreadySpent : Status::kOk);
  }
}

TEST(ServerRuntimeTest, JournalSegmentsSurviveShardCountChange) {
  std::string prefix = ::testing::TempDir() + "/srv_journal_test";
  // Fresh start: remove any leftovers from a previous run.
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 4;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    std::vector<rel::LicenseId> ids;
    for (std::uint64_t n = 0; n < 64; ++n) ids.push_back(MakeId(n));
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    for (Status s : st) EXPECT_EQ(s, Status::kOk);
  }
  {
    // Restart with a DIFFERENT shard count: replay re-routes every id to
    // its new home shard.
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), 64u);
    EXPECT_EQ(rt.SpendOne(MakeId(5)), Status::kAlreadySpent);
    EXPECT_EQ(rt.SpendOne(MakeId(1000)), Status::kOk);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, DuplicateJournalRecordsReplayIdempotently) {
  std::string prefix = ::testing::TempDir() + "/srv_journal_dup";
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  std::size_t clean_size;
  std::size_t clean_bytes;
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    std::vector<rel::LicenseId> ids;
    for (std::uint64_t n = 0; n < 40; ++n) ids.push_back(MakeId(n));
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    clean_size = rt.SpentSize();
    clean_bytes = rt.SpentMemoryBytes();
    ASSERT_EQ(clean_size, 40u);
  }
  // A botched migration leaves OVERLAPPING history: copy shard 0's
  // segment into a legacy unsharded journal, duplicating its records.
  {
    std::FILE* src =
        std::fopen(ServerRuntime::SegmentPath(prefix, 0).c_str(), "rb");
    ASSERT_NE(src, nullptr);
    std::FILE* dst = std::fopen(prefix.c_str(), "wb");
    ASSERT_NE(dst, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, src)) > 0) {
      std::fwrite(buf, 1, got, dst);
    }
    std::fclose(src);
    std::fclose(dst);
  }
  {
    // Replay sees every record twice; the spent set (and its memory
    // accounting) must come out exactly as from the clean history, and
    // imports/replays must not count as processed traffic.
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), clean_size);
    EXPECT_EQ(rt.SpentMemoryBytes(), clean_bytes);
    EXPECT_EQ(rt.Processed(), 0u);
    EXPECT_EQ(rt.SpendOne(MakeId(7)), Status::kAlreadySpent);
  }
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, ImportSpentIsIdempotentAndJournalsFreshIdsOnce) {
  std::string prefix = ::testing::TempDir() + "/srv_import";
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  std::vector<rel::LicenseId> ids;
  for (std::uint64_t n = 0; n < 50; ++n) ids.push_back(MakeId(n));
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 3;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    // Half the ids are already spent locally; the import overlaps them.
    std::vector<rel::LicenseId> local(ids.begin(), ids.begin() + 25);
    std::vector<Status> st;
    rt.SpendBatch(local, &st, /*shed_on_full=*/false);

    ServerRuntime::ImportStats first = rt.ImportSpent(ids);
    EXPECT_EQ(first.fresh, 25u);
    EXPECT_EQ(first.duplicates, 25u);
    EXPECT_EQ(rt.SpentSize(), 50u);
    // Replaying the SAME migration again must change nothing.
    ServerRuntime::ImportStats second = rt.ImportSpent(ids);
    EXPECT_EQ(second.fresh, 0u);
    EXPECT_EQ(second.duplicates, 50u);
    EXPECT_EQ(rt.SpentSize(), 50u);
    // Imports are not client traffic.
    EXPECT_EQ(rt.Processed(), 25u);  // only the SpendBatch items
  }
  {
    // Fresh imports were journaled exactly once: a restart still refuses
    // every id, and the scan sees 50 records total (25 spends + 25
    // imports, no re-journaled duplicates).
    ServerRuntime::JournalScanStats scan =
        ServerRuntime::ForEachJournalRecord(prefix, nullptr);
    EXPECT_EQ(scan.records, 50u);
    EXPECT_EQ(scan.torn_tails, 0u);
    ServerRuntimeConfig cfg;
    cfg.shard_count = 3;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), 50u);
    for (const rel::LicenseId& id : ids) {
      EXPECT_EQ(rt.SpendOne(id), Status::kAlreadySpent);
    }
  }
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, FlatAndHashBackendsAgreeThroughRuntimeAndRestart) {
  std::string prefix_flat = ::testing::TempDir() + "/srv_diff_flat";
  std::string prefix_hash = ::testing::TempDir() + "/srv_diff_hash";
  for (const std::string& p : {prefix_flat, prefix_hash}) {
    std::remove(p.c_str());
    for (std::size_t i = 0; i < 8; ++i) {
      std::remove(ServerRuntime::SegmentPath(p, i).c_str());
    }
  }

  // Identical randomized traffic (duplicates, overlapping imports) through
  // a flat+group-commit runtime and the legacy hash+per-record runtime:
  // every status, size, and import tally must agree — the storage engine
  // swap is invisible at the contract level.
  auto config = [](store::SpentSetBackend backend, bool group_commit,
                   const std::string& prefix) {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 3;
    cfg.spent_backend = backend;
    cfg.group_commit_journal = group_commit;
    cfg.journal_path_prefix = prefix;
    return cfg;
  };
  {
    ServerRuntime flat(
        config(store::SpentSetBackend::kFlat, true, prefix_flat));
    ServerRuntime hash(
        config(store::SpentSetBackend::kHashSet, false, prefix_hash));
    crypto::HmacDrbg rng("runtime-differential");
    for (int round = 0; round < 20; ++round) {
      std::vector<rel::LicenseId> ids;
      std::size_t n = 1 + rng.NextUint64(60);
      for (std::size_t i = 0; i < n; ++i) {
        ids.push_back(MakeId(rng.NextUint64(500)));  // heavy duplicates
      }
      if (rng.NextUint64(3) == 0) {
        ServerRuntime::ImportStats fa = flat.ImportSpent(ids);
        ServerRuntime::ImportStats ha = hash.ImportSpent(ids);
        ASSERT_EQ(fa.fresh, ha.fresh) << "round " << round;
        ASSERT_EQ(fa.duplicates, ha.duplicates) << "round " << round;
      } else {
        std::vector<Status> sf, sh;
        flat.SpendBatch(ids, &sf, /*shed_on_full=*/false);
        hash.SpendBatch(ids, &sh, /*shed_on_full=*/false);
        ASSERT_EQ(sf, sh) << "round " << round;
      }
      ASSERT_EQ(flat.SpentSize(), hash.SpentSize()) << "round " << round;
    }
  }
  // Cross-restart, cross-backend: each journal replays into a runtime
  // using the OTHER backend (group-committed blocks and per-record
  // journals are one on-disk format as far as replay is concerned).
  {
    ServerRuntime flat_from_hash(
        config(store::SpentSetBackend::kFlat, true, prefix_hash));
    ServerRuntime hash_from_flat(
        config(store::SpentSetBackend::kHashSet, false, prefix_flat));
    EXPECT_EQ(flat_from_hash.SpentSize(), hash_from_flat.SpentSize());
    for (std::uint64_t n = 0; n < 500; ++n) {
      ASSERT_EQ(flat_from_hash.SpendOne(MakeId(n)),
                hash_from_flat.SpendOne(MakeId(n)))
          << n;
    }
  }
  for (const std::string& p : {prefix_flat, prefix_hash}) {
    std::remove(p.c_str());
    for (std::size_t i = 0; i < 8; ++i) {
      std::remove(ServerRuntime::SegmentPath(p, i).c_str());
    }
  }
}

TEST(ServerRuntimeTest, TornGroupCommitBlockDropsWholeBlockAndRecovers) {
  std::string prefix = ::testing::TempDir() + "/srv_torn_block";
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }

  constexpr std::uint64_t kN = 64;
  std::vector<rel::LicenseId> ids;
  for (std::uint64_t n = 0; n < kN; ++n) ids.push_back(MakeId(n));
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;  // group commit is the default
    ServerRuntime rt(cfg);
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    for (Status s : st) ASSERT_EQ(s, Status::kOk);
    ASSERT_EQ(rt.SpentSize(), kN);
  }
  // Shard 0's share of the batch was journaled as ONE group-committed
  // block; a crash that tears 5 bytes off its tail lands INSIDE that
  // block, and the CRC covers the whole block — so replay must drop every
  // id in it, not just the last one.
  ShardRouter router(2);
  std::size_t shard0_ids = 0;
  for (const auto& id : ids) {
    if (router.ShardFor(id) == 0) ++shard0_ids;
  }
  ASSERT_GT(shard0_ids, 1u);  // the tear must cost >1 record to be a test
  {
    std::string seg = ServerRuntime::SegmentPath(prefix, 0);
    std::FILE* f = std::fopen(seg.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size - 5), 0);
    std::fclose(f);
  }
  ServerRuntime::JournalScanStats scan =
      ServerRuntime::ForEachJournalRecord(prefix, nullptr);
  EXPECT_EQ(scan.torn_tails, 1u);
  EXPECT_EQ(scan.records, kN - shard0_ids);  // whole block gone
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), kN - shard0_ids);
    // Lost ids are re-spendable (the provider never confirmed them
    // durable); survivors still refuse. Re-spending everything restores
    // the full set and re-journals the lost block.
    std::vector<Status> st;
    rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
    std::size_t ok = 0, dup = 0;
    for (Status s : st) (s == Status::kOk ? ok : dup) += 1;
    EXPECT_EQ(ok, shard0_ids);
    EXPECT_EQ(dup, kN - shard0_ids);
    EXPECT_EQ(rt.SpentSize(), kN);
  }
  // The reopen truncated the torn tail before appending, so the healed
  // journal replays clean and complete.
  scan = ServerRuntime::ForEachJournalRecord(prefix, nullptr);
  EXPECT_EQ(scan.torn_tails, 0u);
  EXPECT_EQ(scan.records, kN);
  {
    ServerRuntimeConfig cfg;
    cfg.shard_count = 2;
    cfg.journal_path_prefix = prefix;
    ServerRuntime rt(cfg);
    EXPECT_EQ(rt.SpentSize(), kN);
  }
  std::remove(prefix.c_str());
  for (std::size_t i = 0; i < 8; ++i) {
    std::remove(ServerRuntime::SegmentPath(prefix, i).c_str());
  }
}

TEST(ServerRuntimeTest, SpentBytesGaugeTracksMemoryBytes) {
  ServerRuntimeConfig cfg;
  cfg.shard_count = 4;
  ServerRuntime rt(cfg);
  obs::Registry registry;
  rt.set_observability(&registry, "srv.");

  auto gauge = [&registry]() -> std::int64_t {
    for (const auto& m : registry.Aggregate()) {
      if (m.name == "srv.spent.bytes") return m.gauge;
    }
    ADD_FAILURE() << "srv.spent.bytes not registered";
    return -1;
  };
  EXPECT_EQ(gauge(), 0);

  // Across growth (rehashes move the footprint in steps, and the gauge is
  // updated as a delta per task) the quiesced gauge must equal the honest
  // per-shard MemoryBytes sum exactly.
  std::vector<rel::LicenseId> ids;
  for (std::uint64_t n = 0; n < 3000; ++n) ids.push_back(MakeId(n));
  std::vector<Status> st;
  rt.SpendBatch(ids, &st, /*shed_on_full=*/false);
  rt.Drain();
  EXPECT_EQ(gauge(), static_cast<std::int64_t>(rt.SpentMemoryBytes()));
  EXPECT_GT(gauge(), 0);

  // Imports grow the set through the other write path; same contract.
  std::vector<rel::LicenseId> more;
  for (std::uint64_t n = 3000; n < 9000; ++n) more.push_back(MakeId(n));
  rt.ImportSpent(more);
  rt.Drain();
  EXPECT_EQ(gauge(), static_cast<std::int64_t>(rt.SpentMemoryBytes()));
}

// -- batch verifier ----------------------------------------------------------

class BatchVerifierTest : public ::testing::Test {
 protected:
  BatchVerifierTest()
      : rng_("batch-verifier-test"),
        key_(crypto::GenerateRsaKey(512, &rng_)),
        pub_(key_.PublicKey()) {}

  std::vector<std::uint8_t> RandomMsg() {
    std::vector<std::uint8_t> msg(48);
    rng_.Fill(msg.data(), msg.size());
    return msg;
  }

  crypto::HmacDrbg rng_;
  crypto::RsaPrivateKey key_;
  crypto::RsaPublicKey pub_;
};

TEST_F(BatchVerifierTest, SameKeyBatchAcceptsGenuineWithOneVerify) {
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (int i = 0; i < 16; ++i) {
    msgs.push_back(RandomMsg());
    sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
  }
  BatchVerifier verifier;
  std::vector<bool> ok = verifier.VerifySameKeyBatch(pub_, msgs, sigs, &rng_);
  for (bool v : ok) EXPECT_TRUE(v);
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.items, 16u);
  EXPECT_EQ(stats.full_verifies, 1u);  // one screen for the whole group
  EXPECT_EQ(stats.screened_groups, 1u);
  EXPECT_EQ(stats.screen_failures, 0u);
}

TEST_F(BatchVerifierTest, SameKeyBatchIsolatesTamperedItems) {
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::vector<std::uint8_t>> sigs;
  for (int i = 0; i < 8; ++i) {
    msgs.push_back(RandomMsg());
    sigs.push_back(crypto::RsaSignFdh(key_, msgs.back()));
  }
  sigs[3][10] ^= 0x01;  // corrupt one signature
  sigs[6] = std::vector<std::uint8_t>(4, 0xab);  // structurally wrong

  BatchVerifier verifier;
  std::vector<bool> ok = verifier.VerifySameKeyBatch(pub_, msgs, sigs, &rng_);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ok[i], i != 3 && i != 6) << "item " << i;
  }
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.screen_failures, 1u);  // screen tripped, fell back
}

TEST_F(BatchVerifierTest, PseudonymCertsVerifiedOncePerDistinctCert) {
  crypto::RsaPrivateKey ca = crypto::GenerateRsaKey(512, &rng_);
  std::vector<core::PseudonymCertificate> certs(3);
  for (auto& cert : certs) {
    cert.pseudonym_key = pub_;
    cert.escrow.resize(24);
    rng_.Fill(cert.escrow.data(), cert.escrow.size());
    cert.ca_signature = crypto::RsaSignFdh(ca, cert.CanonicalBytes());
  }
  BatchVerifier verifier;
  // 12 checks over 3 distinct certs: 3 full verifies, 9 cache hits.
  for (int round = 0; round < 4; ++round) {
    for (const auto& cert : certs) {
      EXPECT_TRUE(verifier.VerifyPseudonymCert(ca.PublicKey(), cert));
    }
  }
  BatchVerifierStats stats = verifier.stats();
  EXPECT_EQ(stats.full_verifies, 3u);
  EXPECT_EQ(stats.cert_cache_hits, 9u);

  // A forged cert is rejected and the rejection is cached too.
  core::PseudonymCertificate forged = certs[0];
  forged.escrow.push_back(0x7f);
  EXPECT_FALSE(verifier.VerifyPseudonymCert(ca.PublicKey(), forged));
  EXPECT_FALSE(verifier.VerifyPseudonymCert(ca.PublicKey(), forged));
  EXPECT_EQ(verifier.stats().cert_cache_hits, 10u);
}

// -- content provider batch fast path ---------------------------------------

class ShardedProviderTest : public ::testing::Test {
 protected:
  ShardedProviderTest()
      : rng_("sharded-cp-test"),
        ca_(512, &rng_),
        ttp_(512, &rng_),
        bank_(512, &rng_),
        cp_(Config(), &rng_, &clock_, &bank_, ca_.PublicKey()),
        card_("Sam", 512, &rng_) {
    card_.StoreIdentityCertificate(ca_.Enrol("Sam", card_.MasterKey()));
    bank_.OpenAccount("sam", 10000);
    content_ = cp_.Publish("Album", std::vector<std::uint8_t>(64, 0x5a), 30,
                           rel::Rights::FullRetail());
  }

  static core::ContentProviderConfig Config() {
    core::ContentProviderConfig c;
    c.signing_key_bits = 512;
    c.redeem_shards = 2;
    return c;
  }

  core::Pseudonym* NewPseudonym() {
    core::PseudonymRequest req =
        card_.BeginPseudonym(ca_.PublicKey(), ttp_.EscrowKey());
    bignum::BigInt sig =
        ca_.SignPseudonymBlinded(card_.CardId(), req.blinding.blinded);
    return card_.FinishPseudonym(std::move(req), sig, ca_.PublicKey());
  }

  std::vector<core::Coin> Pay(std::uint64_t amount) {
    std::vector<core::Coin> coins;
    for (auto d : core::PlanCoins(amount)) {
      core::Coin coin;
      rng_.Fill(coin.serial.data(), coin.serial.size());
      coin.denomination = d;
      const auto& key = bank_.DenominationKey(d);
      auto ctx = crypto::BlindMessage(key, coin.CanonicalBytes(), &rng_);
      bignum::BigInt blind_sig;
      EXPECT_EQ(bank_.Withdraw("sam", d, ctx.blinded, &blind_sig),
                Status::kOk);
      coin.signature = crypto::Unblind(key, ctx, blind_sig);
      coins.push_back(coin);
    }
    return coins;
  }

  /// Buys and exchanges one license, returning the anonymous bearer.
  rel::License NewBearer(core::Pseudonym* p) {
    auto bought = cp_.Purchase(p->cert, content_, Pay(30));
    EXPECT_EQ(bought.status, Status::kOk);
    auto sig = card_.SignWithPseudonym(
        p->cert.KeyId(),
        core::ContentProvider::TransferChallengeBytes(bought.license.id));
    auto exch = cp_.ExchangeForAnonymous(bought.license, sig);
    EXPECT_EQ(exch.status, Status::kOk);
    return exch.anonymous_license;
  }

  crypto::HmacDrbg rng_;
  core::SimClock clock_;
  core::CertificationAuthority ca_;
  core::TrustedThirdParty ttp_;
  core::PaymentProvider bank_;
  core::ContentProvider cp_;
  core::SmartCard card_;
  rel::ContentId content_ = 0;
};

TEST_F(ShardedProviderTest, BatchRedeemMatchesItemSemantics) {
  core::Pseudonym* giver = NewPseudonym();
  core::Pseudonym* taker = NewPseudonym();
  rel::License bearer_a = NewBearer(giver);
  rel::License bearer_b = NewBearer(giver);

  // A genuine batch with a duplicate: the repeated pseudonym and the
  // same-key screen make the whole batch cost 2 full verifications (one
  // screened group + one distinct cert) for 3 items.
  auto before = cp_.BatchVerifyStats();
  std::vector<core::ContentProvider::RedeemItem> items = {
      {bearer_a, taker->cert},
      {bearer_a, taker->cert},  // duplicate inside the batch
      {bearer_b, taker->cert},
  };
  auto results = cp_.RedeemAnonymousBatch(items);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, Status::kOk);
  EXPECT_EQ(results[1].status, Status::kAlreadySpent);
  EXPECT_EQ(results[2].status, Status::kOk);
  EXPECT_EQ(results[0].license.bound_key, taker->cert.KeyId());
  EXPECT_FALSE(results[0].license.wrapped_content_key.empty());

  auto delta = cp_.BatchVerifyStats() - before;
  EXPECT_LT(delta.full_verifies, items.size());
  EXPECT_GT(delta.cert_cache_hits, 0u);
  EXPECT_EQ(delta.screen_failures, 0u);

  // The in-batch duplicate is a detected double redemption with evidence.
  EXPECT_EQ(cp_.DoubleRedemptionAttempts(), 1u);
  auto evidence = cp_.TakeFraudEvidence();
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].first.license_id, bearer_a.id);

  // A tampered license in a later batch fails alone — the screen trips,
  // falls back per item, and the honest item still reports correctly.
  rel::License forged = bearer_b;
  forged.rights.play_count = 7;  // breaks the issuer signature
  auto mixed = cp_.RedeemAnonymousBatch(
      {{forged, taker->cert}, {bearer_b, taker->cert}});
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].status, Status::kBadSignature);
  EXPECT_EQ(mixed[1].status, Status::kAlreadySpent);
  EXPECT_GT(cp_.BatchVerifyStats().screen_failures, 0u);

  // Re-redeeming through the SINGLE-item path still hits the shards.
  auto again = cp_.RedeemAnonymous(bearer_b, taker->cert);
  EXPECT_EQ(again.status, Status::kAlreadySpent);
}

TEST_F(ShardedProviderTest, RevokedTakerRejectedInBatch) {
  core::Pseudonym* giver = NewPseudonym();
  core::Pseudonym* taker = NewPseudonym();
  rel::License bearer = NewBearer(giver);
  cp_.Revoke(taker->cert.KeyId());
  auto results = cp_.RedeemAnonymousBatch({{bearer, taker->cert}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, Status::kRevoked);
  // The bearer was not burned by the failed attempt.
  core::Pseudonym* honest = NewPseudonym();
  EXPECT_EQ(cp_.RedeemAnonymous(bearer, honest->cert).status, Status::kOk);
}

}  // namespace
}  // namespace server
}  // namespace p2drm
