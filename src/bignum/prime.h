#ifndef P2DRM_BIGNUM_PRIME_H_
#define P2DRM_BIGNUM_PRIME_H_

/// \file prime.h
/// \brief Primality testing and prime generation for RSA key material.

#include <cstddef>

#include "bignum/bigint.h"
#include "bignum/random_source.h"

namespace p2drm {
namespace bignum {

/// Miller–Rabin probabilistic primality test.
/// \param n        candidate (n > 1 required for a true result)
/// \param rounds   number of random bases; error probability <= 4^-rounds
/// \param rng      source of random bases
bool IsProbablePrime(const BigInt& n, int rounds, RandomSource* rng);

/// Deterministic trial division by small primes (< 2048). Returns false if a
/// small factor is found; true means "no small factor" (not "prime").
bool PassesTrialDivision(const BigInt& n);

/// Generates a random odd prime with exactly \p bits bits (bits >= 2;
/// throws std::domain_error below). Incremental sieved search from one
/// random start; survivors of the small-prime sieve get Miller–Rabin with
/// \p mr_rounds rounds (docs/bignum.md, "Prime generation").
BigInt GeneratePrime(std::size_t bits, int mr_rounds, RandomSource* rng);

/// Generates a prime p with exactly \p bits bits, its top two bits set
/// (p >= 1.5 * 2^(bits-1), so the product of two such primes has exactly
/// 2*bits bits; FIPS 186-5 A.1.3), and gcd(p-1, e) == 1 so that e is
/// invertible mod p-1. Used by RSA key generation.
BigInt GenerateRsaPrime(std::size_t bits, const BigInt& e, int mr_rounds,
                        RandomSource* rng);

}  // namespace bignum
}  // namespace p2drm

#endif  // P2DRM_BIGNUM_PRIME_H_
