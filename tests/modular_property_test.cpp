// Property tests for modular arithmetic laws — the algebra the whole
// crypto stack silently relies on (blind-signature correctness is exactly
// the homomorphism (m·r^e)^d ≡ m^d·r mod n).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/limbs.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "crypto/drbg.h"

namespace p2drm {
namespace bignum {
namespace {

class ModularLawsTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  crypto::HmacDrbg MakeRng() const {
    return crypto::HmacDrbg("modlaws-" + std::to_string(GetParam()));
  }
};

TEST_P(ModularLawsTest, AddSubMulModConsistency) {
  auto rng = MakeRng();
  BigInt m = rng.BitsExact(96);
  if (m.IsEven()) m = m + BigInt(1);
  for (int i = 0; i < 40; ++i) {
    BigInt a = rng.Below(m);
    BigInt b = rng.Below(m);
    // AddMod/SubMod/MulMod agree with the definitional forms.
    EXPECT_EQ(a.AddMod(b, m).ToHex(), ((a + b).Mod(m)).ToHex());
    EXPECT_EQ(a.SubMod(b, m).ToHex(), ((a - b).Mod(m)).ToHex());
    EXPECT_EQ(a.MulMod(b, m).ToHex(), ((a * b).Mod(m)).ToHex());
    // Inverses: a - b + b ≡ a.
    EXPECT_EQ(a.SubMod(b, m).AddMod(b, m).ToHex(), a.ToHex());
  }
}

TEST_P(ModularLawsTest, PowModLaws) {
  auto rng = MakeRng();
  BigInt m = rng.BitsExact(80);
  if (m.IsEven()) m = m + BigInt(1);
  for (int i = 0; i < 15; ++i) {
    BigInt a = rng.Below(m);
    BigInt x = rng.Below(BigInt(1000));
    BigInt y = rng.Below(BigInt(1000));
    // a^(x+y) = a^x * a^y  (mod m)
    EXPECT_EQ(a.PowMod(x + y, m).ToHex(),
              a.PowMod(x, m).MulMod(a.PowMod(y, m), m).ToHex());
    // (a^x)^y = a^(x*y)  (mod m)
    EXPECT_EQ(a.PowMod(x, m).PowMod(y, m).ToHex(),
              a.PowMod(x * y, m).ToHex());
  }
}

TEST_P(ModularLawsTest, MultiplicativeHomomorphism) {
  // (a*b)^e ≡ a^e * b^e — the property Chaum blinding depends on.
  auto rng = MakeRng();
  BigInt m = rng.BitsExact(80);
  if (m.IsEven()) m = m + BigInt(1);
  BigInt e(65537);
  for (int i = 0; i < 15; ++i) {
    BigInt a = rng.Below(m);
    BigInt b = rng.Below(m);
    EXPECT_EQ(a.MulMod(b, m).PowMod(e, m).ToHex(),
              a.PowMod(e, m).MulMod(b.PowMod(e, m), m).ToHex());
  }
}

TEST_P(ModularLawsTest, InverseIsTwoSided) {
  auto rng = MakeRng();
  BigInt p = GeneratePrime(72, 12, &rng);
  for (int i = 0; i < 25; ++i) {
    BigInt a = rng.Below(p);
    if (a.IsZero()) continue;
    BigInt inv = a.InvMod(p);
    EXPECT_EQ(a.MulMod(inv, p).ToDec(), "1");
    EXPECT_EQ(inv.MulMod(a, p).ToDec(), "1");
    // Double inverse is identity.
    EXPECT_EQ(inv.InvMod(p).ToHex(), a.ToHex());
  }
}

TEST_P(ModularLawsTest, FermatAndEulerOnRandomPrimes) {
  auto rng = MakeRng();
  BigInt p = GeneratePrime(96, 12, &rng);
  BigInt q = GeneratePrime(96, 12, &rng);
  BigInt n = p * q;
  BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
  for (int i = 0; i < 6; ++i) {
    BigInt a = BigInt(2) + rng.Below(p - BigInt(3));
    // Fermat: a^(p-1) ≡ 1 (mod p).
    EXPECT_EQ(a.PowMod(p - BigInt(1), p).ToDec(), "1");
    // Euler: gcd(a, n)=1 ⇒ a^phi(n) ≡ 1 (mod n).
    if (BigInt::Gcd(a, n) == BigInt(1)) {
      EXPECT_EQ(a.PowMod(phi, n).ToDec(), "1");
    }
  }
}

TEST_P(ModularLawsTest, RsaRoundTripAlgebra) {
  // The raw RSA identity built from scratch: m^(e*d) ≡ m (mod pq).
  auto rng = MakeRng();
  BigInt e(65537);
  BigInt p = GenerateRsaPrime(80, e, 12, &rng);
  BigInt q = GenerateRsaPrime(80, e, 12, &rng);
  if (p == q) return;
  BigInt n = p * q;
  BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
  BigInt d = e.InvMod(phi);
  for (int i = 0; i < 8; ++i) {
    BigInt m = rng.Below(n);
    EXPECT_EQ(m.PowMod(e, n).PowMod(d, n).ToHex(), m.ToHex());
  }
}

TEST_P(ModularLawsTest, MontgomeryAgreesWithGenericPowMod) {
  auto rng = MakeRng();
  BigInt m = rng.BitsExact(128);
  if (m.IsEven()) m = m + BigInt(1);
  Montgomery mont(m);
  for (int i = 0; i < 10; ++i) {
    BigInt base = rng.Below(m);
    BigInt exp = rng.Below(BigInt(1) << 64);
    EXPECT_EQ(mont.PowMod(base, exp).ToHex(), base.PowMod(exp, m).ToHex());
  }
}

TEST_P(ModularLawsTest, CrtReconstruction) {
  // The CRT identity used by RsaPrivateOp, checked in isolation.
  auto rng = MakeRng();
  BigInt p = GeneratePrime(64, 12, &rng);
  BigInt q = GeneratePrime(64, 12, &rng);
  if (p == q) return;
  BigInt n = p * q;
  BigInt qinv = q.InvMod(p);
  for (int i = 0; i < 20; ++i) {
    BigInt x = rng.Below(n);
    BigInt xp = x.Mod(p);
    BigInt xq = x.Mod(q);
    BigInt h = qinv.MulMod(xp.SubMod(xq.Mod(p), p), p);
    BigInt rebuilt = xq + h * q;
    EXPECT_EQ(rebuilt.ToHex(), x.ToHex());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModularLawsTest,
                         ::testing::Values(11u, 23u, 47u, 91u));

// -- differential coverage for the 64-bit limb kernels ----------------------
//
// The CIOS Montgomery kernels (montgomery.cpp) and the arena Karatsuba
// (limbs.cpp) are checked against arithmetic that shares none of their
// code: schoolbook multiplication plus Knuth Algorithm D division. The
// suite runs at the four widths with fixed-width kernels (256/512/1024/
// 2048 bits) so every dispatch target gets exercised.

class KernelDifferentialTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    rng_.reset(new crypto::HmacDrbg("kernel-diff-" +
                                    std::to_string(GetParam())));
    modulus_ = rng_->BitsExact(GetParam());
    if (modulus_.IsEven()) modulus_ = modulus_ + BigInt(1);
    mont_.reset(new Montgomery(modulus_));
    // R and R^-1 mod N via plain shift / extended gcd — independent of
    // everything the Montgomery context precomputed.
    r_ = (BigInt(1) << (64 * mont_->width())).Mod(modulus_);
    r_inv_ = r_.InvMod(modulus_);
  }

  // Division-based reference for the Montgomery product a*b*R^-1 mod N.
  BigInt RefMontMul(const BigInt& a, const BigInt& b) const {
    return (a * b * r_inv_).Mod(modulus_);
  }

  // Division-based square-and-multiply reference for base^exp mod N.
  BigInt RefPowMod(const BigInt& base, const BigInt& exp) const {
    BigInt acc(1);
    for (std::size_t i = exp.BitLength(); i > 0; --i) {
      acc = acc.MulMod(acc, modulus_);
      if (exp.Bit(i - 1)) acc = acc.MulMod(base, modulus_);
    }
    return acc;
  }

  std::unique_ptr<crypto::HmacDrbg> rng_;
  std::unique_ptr<Montgomery> mont_;
  BigInt modulus_;
  BigInt r_;      // R mod N
  BigInt r_inv_;  // R^-1 mod N
};

TEST_P(KernelDifferentialTest, MontMulMatchesDivisionReference) {
  for (int i = 0; i < 12; ++i) {
    BigInt a = rng_->Below(modulus_);
    BigInt b = rng_->Below(modulus_);
    EXPECT_EQ(mont_->MulMont(a, b).ToHex(), RefMontMul(a, b).ToHex());
  }
}

TEST_P(KernelDifferentialTest, SpanMontMulMatchesBoxedPath) {
  Scratch scratch;
  const std::size_t w = mont_->width();
  std::vector<Limb> a64(w), b64(w), out64(w);
  for (int i = 0; i < 8; ++i) {
    BigInt a = rng_->Below(modulus_);
    BigInt b = rng_->Below(modulus_);
    mont_->Load(a64.data(), a);
    mont_->Load(b64.data(), b);
    mont_->MontMulLimbs(out64.data(), a64.data(), b64.data(), &scratch);
    EXPECT_EQ(mont_->Unload(out64.data()).ToHex(), RefMontMul(a, b).ToHex());
    // Aliased output (out == a) must behave identically.
    mont_->MontMulLimbs(a64.data(), a64.data(), b64.data(), &scratch);
    EXPECT_EQ(mont_->Unload(a64.data()).ToHex(), RefMontMul(a, b).ToHex());
  }
}

TEST_P(KernelDifferentialTest, RedcMatchesDivisionReference) {
  // FromMont is REDC: a ↦ a*R^-1 mod N.
  for (int i = 0; i < 12; ++i) {
    BigInt a = rng_->Below(modulus_);
    EXPECT_EQ(mont_->FromMont(a).ToHex(), (a * r_inv_).Mod(modulus_).ToHex());
    // ToMont/FromMont round-trips through Montgomery form.
    EXPECT_EQ(mont_->FromMont(mont_->ToMont(a)).ToHex(), a.ToHex());
  }
}

TEST_P(KernelDifferentialTest, PowModMatchesDivisionReference) {
  for (int i = 0; i < 4; ++i) {
    BigInt base = rng_->Below(modulus_);
    BigInt exp = rng_->BitsExact(256);
    EXPECT_EQ(mont_->PowMod(base, exp).ToHex(), RefPowMod(base, exp).ToHex());
  }
  // One full-width exponent so both window sizes (4-bit for short
  // exponents, 5-bit above 512 bits) run at every modulus width.
  BigInt base = rng_->Below(modulus_);
  BigInt exp = rng_->BitsExact(GetParam());
  EXPECT_EQ(mont_->PowMod(base, exp).ToHex(), RefPowMod(base, exp).ToHex());
}

TEST_P(KernelDifferentialTest, EdgeOperands) {
  const BigInt zero(0), one(1);
  const BigInt n_minus_1 = modulus_ - one;
  const BigInt r_minus_1 = (r_ - one).Mod(modulus_);  // (R mod N) - 1
  const std::vector<BigInt> edges = {zero, one, n_minus_1, r_minus_1, r_};
  for (const BigInt& a : edges) {
    for (const BigInt& b : edges) {
      EXPECT_EQ(mont_->MulMont(a, b).ToHex(), RefMontMul(a, b).ToHex());
    }
    for (const BigInt& e : {zero, one, BigInt(2), n_minus_1}) {
      EXPECT_EQ(mont_->PowMod(a, e).ToHex(), RefPowMod(a, e).ToHex());
    }
  }
}

TEST_P(KernelDifferentialTest, OperandsShorterThanModulus) {
  // Values far narrower than the modulus must pack into width() limbs
  // with correct zero-extension on both the boxed and span paths.
  for (std::size_t bits : {1u, 31u, 64u, 65u, 130u}) {
    BigInt a = rng_->BitsExact(bits);
    BigInt b = rng_->Below(modulus_);
    EXPECT_EQ(mont_->MulMont(a, b).ToHex(), RefMontMul(a, b).ToHex());
    EXPECT_EQ(mont_->PowMod(a, BigInt(3)).ToHex(),
              RefPowMod(a, BigInt(3)).ToHex());
  }
}

TEST_P(KernelDifferentialTest, WarmPowModAllocatesNothing) {
  // The acceptance criterion for the allocation-free hot path: once a
  // Scratch has seen one exponentiation, further MontMul/PowMod work
  // must never touch the heap.
  Scratch scratch;
  const std::size_t w = mont_->width();
  std::vector<Limb> base(w), out(w);
  std::vector<Limb> exp64(w);
  BigInt exp = rng_->BitsExact(GetParam());
  Pack32To64(exp64.data(), w, exp.limbs().data(), exp.limbs().size());
  mont_->Load(base.data(), rng_->Below(modulus_));

  mont_->PowModLimbs(out.data(), base.data(), LimbSpan{exp64.data(), w},
                     &scratch);  // warm-up: arena reaches high-water mark
  const std::uint64_t warm = scratch.heap_allocations();
  for (int i = 0; i < 10; ++i) {
    mont_->PowModLimbs(out.data(), base.data(), LimbSpan{exp64.data(), w},
                       &scratch);
    mont_->MontMulLimbs(out.data(), out.data(), base.data(), &scratch);
  }
  EXPECT_EQ(scratch.heap_allocations(), warm)
      << "warm Montgomery path allocated on the heap";
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelDifferentialTest,
                         ::testing::Values(256u, 512u, 1024u, 2048u));

TEST(KernelDispatchTest, EachFixedWidthCountsInItsOwnBucket) {
  // The bench config blocks (DescribeKernelWidthsHit) report these
  // buckets; a modulus that silently fell through to the generic loop
  // would show up here first.
  struct Case {
    std::size_t bits;
    std::uint64_t KernelStatsSnapshot::*bucket;
  };
  const Case cases[] = {
      {256, &KernelStatsSnapshot::powmod_fixed_256},
      {512, &KernelStatsSnapshot::powmod_fixed_512},
      {1024, &KernelStatsSnapshot::powmod_fixed_1024},
      {2048, &KernelStatsSnapshot::powmod_fixed_2048},
      {320, &KernelStatsSnapshot::powmod_generic},
  };
  crypto::HmacDrbg rng("kernel-dispatch");
  for (const Case& c : cases) {
    BigInt m = rng.BitsExact(c.bits);
    if (m.IsEven()) m = m + BigInt(1);
    Montgomery mont(m);
    const std::uint64_t before = KernelStats().*c.bucket;
    mont.PowMod(rng.Below(m), BigInt(65537));
    EXPECT_GT(KernelStats().*c.bucket, before) << c.bits << " bits";
  }
  EXPECT_EQ(DescribeKernelWidthsHit().rfind("256:", 0), 0u)
      << DescribeKernelWidthsHit();
}

TEST(KaratsubaDifferentialTest, WideProductsSurviveDivisionRoundTrip) {
  // 2048-bit operands are 32 limbs — above the 20-limb Karatsuba
  // threshold, so operator* runs the arena recursion. Knuth division
  // (independent code) must invert the product exactly.
  crypto::HmacDrbg rng("karatsuba-diff");
  const std::uint64_t before = KernelStats().karatsuba_mults;
  for (int i = 0; i < 6; ++i) {
    BigInt a = rng.BitsExact(2048);
    BigInt b = rng.BitsExact(1500 + 100 * i);  // unbalanced widths too
    BigInt c = a * b;
    EXPECT_EQ((c / a).ToHex(), b.ToHex());
    EXPECT_EQ((c % a).ToHex(), "0");
    // Residue check mod a 31-bit prime: cheap, independent reduction.
    const BigInt p(2147483647);
    EXPECT_EQ(c.Mod(p).ToHex(), a.Mod(p).MulMod(b.Mod(p), p).ToHex());
  }
  EXPECT_GT(KernelStats().karatsuba_mults, before)
      << "expected wide products to dispatch through Karatsuba";
}

}  // namespace
}  // namespace bignum
}  // namespace p2drm
