#include "bignum/prime.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "bignum/montgomery.h"

namespace p2drm {
namespace bignum {

namespace {

// All primes below 2048, used for fast rejection before Miller–Rabin.
constexpr std::array<std::uint32_t, 309> kSmallPrimes = {
    2,    3,    5,    7,    11,   13,   17,   19,   23,   29,   31,   37,
    41,   43,   47,   53,   59,   61,   67,   71,   73,   79,   83,   89,
    97,   101,  103,  107,  109,  113,  127,  131,  137,  139,  149,  151,
    157,  163,  167,  173,  179,  181,  191,  193,  197,  199,  211,  223,
    227,  229,  233,  239,  241,  251,  257,  263,  269,  271,  277,  281,
    283,  293,  307,  311,  313,  317,  331,  337,  347,  349,  353,  359,
    367,  373,  379,  383,  389,  397,  401,  409,  419,  421,  431,  433,
    439,  443,  449,  457,  461,  463,  467,  479,  487,  491,  499,  503,
    509,  521,  523,  541,  547,  557,  563,  569,  571,  577,  587,  593,
    599,  601,  607,  613,  617,  619,  631,  641,  643,  647,  653,  659,
    661,  673,  677,  683,  691,  701,  709,  719,  727,  733,  739,  743,
    751,  757,  761,  769,  773,  787,  797,  809,  811,  821,  823,  827,
    829,  839,  853,  857,  859,  863,  877,  881,  883,  887,  907,  911,
    919,  929,  937,  941,  947,  953,  967,  971,  977,  983,  991,  997,
    1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069,
    1087, 1091, 1093, 1097, 1103, 1109, 1117, 1123, 1129, 1151, 1153, 1163,
    1171, 1181, 1187, 1193, 1201, 1213, 1217, 1223, 1229, 1231, 1237, 1249,
    1259, 1277, 1279, 1283, 1289, 1291, 1297, 1301, 1303, 1307, 1319, 1321,
    1327, 1361, 1367, 1373, 1381, 1399, 1409, 1423, 1427, 1429, 1433, 1439,
    1447, 1451, 1453, 1459, 1471, 1481, 1483, 1487, 1489, 1493, 1499, 1511,
    1523, 1531, 1543, 1549, 1553, 1559, 1567, 1571, 1579, 1583, 1597, 1601,
    1607, 1609, 1613, 1619, 1621, 1627, 1637, 1657, 1663, 1667, 1669, 1693,
    1697, 1699, 1709, 1721, 1723, 1733, 1741, 1747, 1753, 1759, 1777, 1783,
    1787, 1789, 1801, 1811, 1823, 1831, 1847, 1861, 1867, 1871, 1873, 1877,
    1879, 1889, 1901, 1907, 1913, 1931, 1933, 1949, 1951, 1973, 1979, 1987,
    1993, 1997, 1999, 2003, 2011, 2017, 2027, 2029, 2039};

// n mod d for small d without building BigInts.
std::uint32_t ModSmall(const BigInt& n, std::uint32_t d) {
  const auto& limbs = n.limbs();
  std::uint64_t r = 0;
  for (std::size_t i = limbs.size(); i > 0; --i) {
    r = ((r << 32) | limbs[i - 1]) % d;
  }
  return static_cast<std::uint32_t>(r);
}

// Odd candidates per sieve window: start, start+2, ..., start+2*(kWindow-1).
// A random odd b-bit start reaches a prime after ~b*ln(2)/2 odd steps on
// average (89 at 256 bits, 355 at 1024), so a window of 4096 is rarely
// used up; when it is, the search redraws.
constexpr std::size_t kSieveWindow = 4096;

// Every composite below 2048^2 = 2^22 has a prime factor below 2048, so
// a candidate of at most this many bits that no sieving prime divides
// is prime outright.
constexpr std::size_t kSieveExactBits = 22;

// Miller–Rabin alone, without the trial division IsProbablePrime runs
// first. Requires n odd and n > 3.
bool MillerRabin(const BigInt& n, int rounds, RandomSource* rng) {
  // Write n-1 = d * 2^s with d odd.
  BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (d.IsEven()) {
    d = d >> 1;
    ++s;
  }

  Montgomery mont(n);
  BigInt two(2);
  BigInt n_minus_3 = n - BigInt(3);

  for (int round = 0; round < rounds; ++round) {
    BigInt a = two + rng->Below(n_minus_3);  // a in [2, n-2]
    BigInt x = mont.PowMod(a, d);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = x.MulMod(x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

// Incremental sieved search (Handbook of Applied Cryptography §4.4):
// one random odd start with its top \p top_bits (1 or 2) bits set, its
// residues modulo the odd primes below 2048 computed once, the multiples
// of each prime struck out of a window of odd offsets, and Miller–Rabin
// run only on the survivors, in order. The search redraws when the window is used
// up or the next candidate would exceed \p bits bits. With \p e set, a
// prime p is accepted only when gcd(p-1, e) == 1.
BigInt SievedSearch(std::size_t bits, std::size_t top_bits, const BigInt* e,
                    int mr_rounds, RandomSource* rng) {
  const BigInt one(1);
  const BigInt limit = one << bits;  // candidates stay below 2^bits
  std::array<bool, kSieveWindow> struck;
  while (true) {
    BigInt start = rng->BitsExact(bits);
    if (top_bits == 2 && !start.Bit(bits - 2)) {
      start = start + (one << (bits - 2));
    }
    if (start.IsEven()) start = start + one;

    // Offsets j with start + 2j < 2^bits.
    const BigInt headroom = (limit - start + one) >> 1;
    const std::size_t window =
        headroom.BitLength() > 20
            ? kSieveWindow
            : std::min<std::size_t>(kSieveWindow, headroom.Low64());
    // Below 2^11 a candidate can itself be a sieving prime: its multiples
    // are struck but the prime itself is not.
    const bool small = bits <= 11;
    const std::uint64_t start_low = start.Low64();

    struck.fill(false);
    for (std::size_t k = 1; k < kSmallPrimes.size(); ++k) {  // odd primes
      const std::uint64_t p = kSmallPrimes[k];
      // start + 2j ≡ 0 (mod p)  <=>  j ≡ -start * 2^-1 (mod p).
      const std::uint64_t r = ModSmall(start, kSmallPrimes[k]);
      std::uint64_t j = (p - r) % p * ((p + 1) / 2) % p;
      if (small && start_low + 2 * j == p) j += p;
      for (; j < window; j += p) struck[j] = true;
    }

    for (std::size_t j = 0; j < window; ++j) {
      if (struck[j]) continue;
      BigInt candidate = start + BigInt(static_cast<std::int64_t>(2 * j));
      const bool prime = bits <= kSieveExactBits ||
                         MillerRabin(candidate, mr_rounds, rng);
      if (!prime) continue;
      if (e != nullptr && BigInt::Gcd(candidate - one, *e) != one) continue;
      return candidate;
    }
  }
}

}  // namespace

bool PassesTrialDivision(const BigInt& n) {
  for (std::uint32_t p : kSmallPrimes) {
    if (ModSmall(n, p) == 0) {
      // n is divisible by p; n is prime only if n == p.
      return n == BigInt(static_cast<std::int64_t>(p));
    }
  }
  return true;
}

bool IsProbablePrime(const BigInt& n, int rounds, RandomSource* rng) {
  if (n.IsNegative() || n.IsZero()) return false;
  if (n == BigInt(1)) return false;
  if (n == BigInt(2) || n == BigInt(3)) return true;
  if (n.IsEven()) return false;
  if (!PassesTrialDivision(n)) return false;
  if (n.BitLength() <= kSieveExactBits) {
    // No prime below 2048 divides n (other than n itself), and every
    // composite below 2^22 = 2048^2 has such a factor: n is prime.
    return true;
  }
  return MillerRabin(n, rounds, rng);
}

BigInt GeneratePrime(std::size_t bits, int mr_rounds, RandomSource* rng) {
  if (bits < 2) throw std::domain_error("GeneratePrime: bits < 2");
  return SievedSearch(bits, 1, nullptr, mr_rounds, rng);
}

BigInt GenerateRsaPrime(std::size_t bits, const BigInt& e, int mr_rounds,
                        RandomSource* rng) {
  if (bits < 2) throw std::domain_error("GenerateRsaPrime: bits < 2");
  return SievedSearch(bits, 2, &e, mr_rounds, rng);
}

}  // namespace bignum
}  // namespace p2drm
