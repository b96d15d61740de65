// HMAC-DRBG determinism and distribution sanity; RandomSource helpers.

#include "crypto/drbg.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>

namespace p2drm {
namespace crypto {
namespace {

using bignum::BigInt;

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

// Heap allocations made by the calling thread, counted by the global
// operator new replacements at the end of this file.
thread_local std::uint64_t tls_heap_allocs = 0;

// -- golden output -----------------------------------------------------------
// Bytes recorded from the reference vector-based HMAC-DRBG. Every seeded
// key, fork and per-item issue stream in the repo derives from this
// output, so any rewrite of the DRBG's internals must reproduce it
// exactly.

TEST(HmacDrbgGolden, SeededBytes) {
  HmacDrbg rng("seed-1");
  EXPECT_EQ(Hex(rng.Bytes(100)),
            "055472a2f4beeaa9e0dceaad99c5b837e560face6b55b7362445511ff5a01220"
            "bd4d81fd26d0255fbeaef49f4669131bdd6ef4d2a83ec80dbd6f2733dc0ddb68"
            "22dc4a9a683e1947a181a054a797d42605ab0af9505365b232eacab710ae0918"
            "9f699fd3");
}

TEST(HmacDrbgGolden, ForkThenReseed) {
  HmacDrbg parent("seed-1");
  HmacDrbg child = parent.Fork("tag");
  child.Reseed({1, 2, 3});
  EXPECT_EQ(Hex(child.Bytes(33)),
            "dfb8233eeea22694416cdc95284b114c96a2774fd90f40c5a7b4aeb626abf746"
            "ee");
  EXPECT_EQ(Hex(parent.Bytes(16)), "d8b2c93cb5bbda4322edc8e68782bf78");
}

TEST(HmacDrbgGolden, ForkRandomChild) {
  HmacDrbg parent("seed-1");
  HmacDrbg child = ForkRandom(&parent, {0x09, 0x08});
  EXPECT_EQ(Hex(child.Bytes(40)),
            "4d98503b7e44b039f8aaf6f56662b9732120645bac6922f43aee1111f5a4aa13"
            "d127109b93d8162e");
}

TEST(HmacDrbg, WarmFillAllocatesNothing) {
  // Prime generation draws from the DRBG in its inner loop, so the
  // generate path (Fill and its state update) must stay off the heap.
  HmacDrbg rng("alloc");
  std::uint8_t buf[97];
  rng.Fill(buf, sizeof(buf));  // warm-up
  const std::uint64_t warm = tls_heap_allocs;
  for (int i = 0; i < 10; ++i) {
    rng.Fill(buf, sizeof(buf));
    rng.Fill(buf, 0);
  }
  EXPECT_EQ(tls_heap_allocs, warm) << "HmacDrbg::Fill allocated on the heap";
}

TEST(HmacDrbg, DeterministicForSeed) {
  HmacDrbg a("seed-1");
  HmacDrbg b("seed-1");
  EXPECT_EQ(a.Bytes(64), b.Bytes(64));
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a("seed-1");
  HmacDrbg b("seed-2");
  EXPECT_NE(a.Bytes(64), b.Bytes(64));
}

TEST(HmacDrbg, SequentialCallsDiffer) {
  HmacDrbg a("seed");
  auto first = a.Bytes(32);
  auto second = a.Bytes(32);
  EXPECT_NE(first, second);
}

TEST(HmacDrbg, ReseedChangesStream) {
  HmacDrbg a("seed");
  HmacDrbg b("seed");
  (void)a.Bytes(32);
  (void)b.Bytes(32);
  b.Reseed({1, 2, 3});
  EXPECT_NE(a.Bytes(32), b.Bytes(32));
}

TEST(HmacDrbg, ByteDistributionRoughlyUniform) {
  HmacDrbg rng("distribution");
  std::array<int, 256> counts{};
  constexpr int kN = 65536;
  for (int i = 0; i < kN / 32; ++i) {
    auto bytes = rng.Bytes(32);
    for (auto b : bytes) counts[b]++;
  }
  // Expected 256 per bucket; allow generous 5-sigma-ish bounds.
  for (int c : counts) {
    EXPECT_GT(c, 128);
    EXPECT_LT(c, 512);
  }
}

// -- forks -------------------------------------------------------------------

TEST(HmacDrbgFork, SameSeedAndTagReproduces) {
  HmacDrbg a("fork-seed");
  HmacDrbg b("fork-seed");
  HmacDrbg child_a = a.Fork("issue");
  HmacDrbg child_b = b.Fork("issue");
  EXPECT_EQ(child_a.Bytes(64), child_b.Bytes(64));
  // The parents advanced identically too.
  EXPECT_EQ(a.Bytes(64), b.Bytes(64));
}

TEST(HmacDrbgFork, DistinctTagsDiverge) {
  HmacDrbg a("fork-seed");
  HmacDrbg b("fork-seed");
  HmacDrbg child_a = a.Fork("issue-0");
  HmacDrbg child_b = b.Fork("issue-1");
  EXPECT_NE(child_a.Bytes(64), child_b.Bytes(64));
}

TEST(HmacDrbgFork, ChildIsIndependentOfLaterParentDraws) {
  // Draws from the parent after the fork must not perturb the child:
  // that independence is what lets a fork move to a worker thread while
  // the dispatch thread keeps consuming the parent.
  HmacDrbg a("fork-seed");
  HmacDrbg b("fork-seed");
  HmacDrbg child_a = a.Fork("worker");
  HmacDrbg child_b = b.Fork("worker");
  (void)a.Bytes(1024);  // only parent a advances
  EXPECT_EQ(child_a.Bytes(64), child_b.Bytes(64));
}

TEST(HmacDrbgFork, ParentStateBindsTheChild) {
  // The same tag forked at different parent positions yields different
  // children — a fork is a draw, not a rewind.
  HmacDrbg a("fork-seed");
  HmacDrbg b("fork-seed");
  (void)b.Bytes(32);
  EXPECT_NE(a.Fork("issue").Bytes(64), b.Fork("issue").Bytes(64));
}

TEST(HmacDrbgFork, ChildAndParentStreamsDiffer) {
  HmacDrbg a("fork-seed");
  HmacDrbg child = a.Fork("issue");
  EXPECT_NE(child.Bytes(64), a.Bytes(64));
}

TEST(ForkRandomFn, ForksAnyRandomSource) {
  SystemRandom sys;
  HmacDrbg child_a = ForkRandom(&sys, {0x01});
  HmacDrbg child_b = ForkRandom(&sys, {0x01});
  // Children are seeded by fresh parent entropy, so even equal tags
  // yield unrelated streams here.
  EXPECT_NE(child_a.Bytes(64), child_b.Bytes(64));
}

TEST(RandomSource, BelowStaysInRange) {
  HmacDrbg rng("below");
  BigInt bound = BigInt::FromDec("1000000");
  for (int i = 0; i < 200; ++i) {
    BigInt v = rng.Below(bound);
    EXPECT_FALSE(v.IsNegative());
    EXPECT_LT(v.Compare(bound), 0);
  }
  EXPECT_THROW(rng.Below(BigInt(0)), std::domain_error);
  EXPECT_THROW(rng.Below(BigInt(-5)), std::domain_error);
}

TEST(RandomSource, BelowOneIsZero) {
  HmacDrbg rng("one");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(rng.Below(BigInt(1)).IsZero());
}

TEST(RandomSource, BelowCoversSmallRange) {
  HmacDrbg rng("cover");
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Below(BigInt(8)).ToDec());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomSource, BitsExactSetsTopBit) {
  HmacDrbg rng("bits");
  for (std::size_t bits : {1u, 2u, 7u, 8u, 9u, 31u, 32u, 33u, 257u}) {
    BigInt v = rng.BitsExact(bits);
    EXPECT_EQ(v.BitLength(), bits) << bits;
  }
  EXPECT_THROW(rng.BitsExact(0), std::domain_error);
}

TEST(RandomSource, BetweenInclusive) {
  HmacDrbg rng("between");
  BigInt lo(10), hi(12);
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    BigInt v = rng.Between(lo, hi);
    EXPECT_GE(v.Compare(lo), 0);
    EXPECT_LE(v.Compare(hi), 0);
    seen.insert(v.ToDec());
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_THROW(rng.Between(hi, lo), std::domain_error);
}

TEST(RandomSource, NextUint64Bound) {
  HmacDrbg rng("u64");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
  EXPECT_EQ(rng.NextUint64(1), 0u);
  EXPECT_THROW(rng.NextUint64(0), std::domain_error);
}

TEST(SystemRandom, ProducesVaryingBytes) {
  SystemRandom sr;
  auto a = sr.Bytes(32);
  auto b = sr.Bytes(32);
  EXPECT_NE(a, b);  // astronomically unlikely to collide
}

}  // namespace
}  // namespace crypto
}  // namespace p2drm

// Counting replacements for the global allocation functions. Every form
// is replaced and all of them forward to malloc/free, so sanitizer
// builds see one consistent allocator family. They stay out of line so
// the compiler never pairs an inlined free() with a new-expression.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++p2drm::crypto::tls_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  ++p2drm::crypto::tls_heap_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
