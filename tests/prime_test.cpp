// Tests for Miller–Rabin and prime generation.

#include "bignum/prime.h"

#include <gtest/gtest.h>

#include <set>

#include "crypto/drbg.h"

namespace p2drm {
namespace bignum {
namespace {

crypto::HmacDrbg MakeRng(const std::string& label) {
  return crypto::HmacDrbg(label);
}

// Exhaustive trial division: shares no code with the sieve or the
// small-prime table.
bool IsPrimeExhaustive(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

// True when some integer in [2, 2048) divides n (n >= 2048).
bool HasFactorBelow2048(const BigInt& n) {
  for (std::int64_t d = 2; d < 2048; ++d) {
    if (n.Mod(BigInt(d)).IsZero()) return true;
  }
  return false;
}

TEST(TrialDivision, SmallComposites) {
  EXPECT_FALSE(PassesTrialDivision(BigInt(4)) &&
               !(BigInt(4) == BigInt(2)));
  EXPECT_FALSE(PassesTrialDivision(BigInt(9)));
  EXPECT_FALSE(PassesTrialDivision(BigInt(1000003LL * 3)));
}

TEST(TrialDivision, SmallPrimesPass) {
  EXPECT_TRUE(PassesTrialDivision(BigInt(2)));
  EXPECT_TRUE(PassesTrialDivision(BigInt(3)));
  EXPECT_TRUE(PassesTrialDivision(BigInt(2039)));
  // A prime larger than the table: must not be flagged.
  EXPECT_TRUE(PassesTrialDivision(BigInt(104729)));
}

TEST(MillerRabin, KnownSmallPrimes) {
  auto rng = MakeRng("mr-small");
  for (std::int64_t p : {2, 3, 5, 7, 11, 101, 65537, 104729}) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), 16, &rng)) << p;
  }
}

TEST(MillerRabin, KnownSmallComposites) {
  auto rng = MakeRng("mr-comp");
  for (std::int64_t c : {1, 4, 6, 9, 15, 21, 100, 65535, 104730}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), 16, &rng)) << c;
  }
}

TEST(MillerRabin, CarmichaelNumbers) {
  // Carmichael numbers fool Fermat but not Miller–Rabin.
  auto rng = MakeRng("mr-carmichael");
  for (std::int64_t c : {561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                         825265}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), 16, &rng)) << c;
  }
}

TEST(MillerRabin, KnownLargePrimes) {
  auto rng = MakeRng("mr-large");
  // 2^127 - 1 (Mersenne), 2^89 - 1 (Mersenne).
  EXPECT_TRUE(IsProbablePrime((BigInt(1) << 127) - BigInt(1), 16, &rng));
  EXPECT_TRUE(IsProbablePrime((BigInt(1) << 89) - BigInt(1), 16, &rng));
  // 10^18 + 9 is prime.
  EXPECT_TRUE(IsProbablePrime(BigInt::FromDec("1000000000000000009"), 16, &rng));
}

TEST(MillerRabin, KnownLargeComposites) {
  auto rng = MakeRng("mr-large-comp");
  // 2^128 + 1 = 59649589127497217 * 5704689200685129054721 (F7, composite).
  EXPECT_FALSE(IsProbablePrime((BigInt(1) << 128) + BigInt(1), 16, &rng));
  // Product of two 64-bit primes.
  BigInt p = BigInt::FromDec("18446744073709551557");
  BigInt q = BigInt::FromDec("18446744073709551533");
  EXPECT_FALSE(IsProbablePrime(p * q, 16, &rng));
}

TEST(MillerRabin, EdgeCases) {
  auto rng = MakeRng("mr-edge");
  EXPECT_FALSE(IsProbablePrime(BigInt(0), 8, &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(1), 8, &rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(-7), 8, &rng));
  EXPECT_TRUE(IsProbablePrime(BigInt(2), 8, &rng));
}

class PrimeGenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimeGenTest, GeneratedPrimeHasExactBitsAndIsPrime) {
  std::size_t bits = GetParam();
  auto rng = MakeRng("gen-" + std::to_string(bits));
  BigInt p = GeneratePrime(bits, 16, &rng);
  EXPECT_EQ(p.BitLength(), bits);
  EXPECT_TRUE(p.IsOdd());
  auto rng2 = MakeRng("check");
  EXPECT_TRUE(IsProbablePrime(p, 24, &rng2));
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimeGenTest,
                         ::testing::Values(64, 128, 192, 256, 384, 512));

TEST(PrimeGen, SievedOutputsHaveNoSmallFactor) {
  auto rng = MakeRng("sieve-small-factors");
  for (std::size_t bits : {64u, 256u, 512u}) {
    for (int i = 0; i < 4; ++i) {
      BigInt p = GeneratePrime(bits, 24, &rng);
      EXPECT_EQ(p.BitLength(), bits);
      EXPECT_FALSE(HasFactorBelow2048(p)) << p.ToHex();
      auto fresh = MakeRng("independent-check-" + p.ToHex());
      EXPECT_TRUE(IsProbablePrime(p, 24, &fresh)) << p.ToHex();
    }
  }
}

TEST(PrimeGen, WindowNearTopOfRangeStaysInWidth) {
  // At 17-24 bits a 4096-offset sieve window starting in the upper part
  // of the range runs past 2^bits, so the search must clip it and redraw
  // rather than return a wider number.
  auto rng = MakeRng("sieve-clip");
  for (std::size_t bits = 17; bits <= 24; ++bits) {
    for (int i = 0; i < 150; ++i) {
      for (bool rsa : {false, true}) {
        BigInt p = rsa ? GenerateRsaPrime(bits, BigInt(65537), 24, &rng)
                       : GeneratePrime(bits, 24, &rng);
        ASSERT_EQ(p.BitLength(), bits) << p.ToDec();
        EXPECT_TRUE(IsPrimeExhaustive(p.Low64())) << p.ToDec();
      }
    }
  }
}

TEST(PrimeGen, TinyWidthsReachEveryPrime) {
  // Below 2^11 a candidate may itself be one of the sieving primes; the
  // sieve must strike its multiples but keep it. Over enough draws every
  // odd prime of a tiny width shows up.
  auto rng = MakeRng("sieve-tiny");
  for (std::size_t bits = 2; bits <= 16; ++bits) {
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 300; ++i) {
      BigInt p = GeneratePrime(bits, 24, &rng);
      ASSERT_EQ(p.BitLength(), bits) << p.ToDec();
      ASSERT_TRUE(IsPrimeExhaustive(p.Low64())) << p.ToDec();
      seen.insert(p.Low64());
    }
    if (bits <= 6) {
      std::set<std::uint64_t> all;
      for (std::uint64_t n = std::uint64_t{1} << (bits - 1);
           n < (std::uint64_t{1} << bits); ++n) {
        if (n % 2 == 1 && IsPrimeExhaustive(n)) all.insert(n);
      }
      EXPECT_EQ(seen, all) << bits << " bits";
    }
  }
  EXPECT_THROW(GeneratePrime(1, 24, &rng), std::domain_error);
}

TEST(RsaPrimeGen, CoprimeToPublicExponent) {
  auto rng = MakeRng("rsa-prime");
  BigInt e(65537);
  BigInt p = GenerateRsaPrime(256, e, 16, &rng);
  EXPECT_EQ(BigInt::Gcd(p - BigInt(1), e).ToDec(), "1");
  EXPECT_EQ(p.BitLength(), 256u);
}

TEST(RsaPrimeGen, TopTwoBitsSetSoProductsKeepTheirWidth) {
  // p >= 1.5 * 2^(k-1) > sqrt(2) * 2^(k-1) (FIPS 186-5 A.1.3), so the
  // product of any two such k-bit primes has exactly 2k bits. The halves
  // of 128- and 512-bit moduli, 200 primes each.
  auto rng = MakeRng("rsa-prime-bound");
  const BigInt e(65537);
  const BigInt small_e(3);  // gcd(p-1, 3) = 1 rejects about half the primes
  for (std::size_t bits : {64u, 256u}) {
    const BigInt floor = BigInt(3) << (bits - 2);  // 1.5 * 2^(k-1)
    for (int i = 0; i < 200; ++i) {
      const BigInt& exponent = i % 2 == 0 ? e : small_e;
      BigInt p = GenerateRsaPrime(bits, exponent, 24, &rng);
      EXPECT_EQ(p.BitLength(), bits);
      EXPECT_GE(p.Compare(floor), 0) << p.ToHex();
      EXPECT_EQ(BigInt::Gcd(p - BigInt(1), exponent).ToDec(), "1");
      BigInt q = GenerateRsaPrime(bits, exponent, 24, &rng);
      EXPECT_EQ((p * q).BitLength(), 2 * bits);
    }
  }
}

TEST(PrimeGen, DeterministicForSeed) {
  auto rng1 = MakeRng("same-seed");
  auto rng2 = MakeRng("same-seed");
  EXPECT_EQ(GeneratePrime(128, 8, &rng1).ToHex(),
            GeneratePrime(128, 8, &rng2).ToHex());
  EXPECT_EQ(GenerateRsaPrime(256, BigInt(65537), 24, &rng1).ToHex(),
            GenerateRsaPrime(256, BigInt(65537), 24, &rng2).ToHex());
}

}  // namespace
}  // namespace bignum
}  // namespace p2drm
