#include "crypto/drbg.h"

#include <algorithm>
#include <cstring>
#include <random>

namespace p2drm {
namespace crypto {

HmacDrbg::HmacDrbg(const std::vector<std::uint8_t>& seed) {
  // Instantiate: K = 0x00..00, V = 0x01..01, then update with the seed.
  Digest256 zero_key{};
  SetKey(zero_key);
  v_.fill(0x01);
  UpdateState(seed.data(), seed.size());
}

HmacDrbg::HmacDrbg(const std::string& seed_label)
    : HmacDrbg(std::vector<std::uint8_t>(seed_label.begin(),
                                         seed_label.end())) {}

void HmacDrbg::SetKey(const Digest256& key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> ipad, opad;
  ipad.fill(0x36);
  opad.fill(0x5c);
  for (std::size_t i = 0; i < key.size(); ++i) {
    ipad[i] ^= key[i];
    opad[i] ^= key[i];
  }
  inner_.Reset();
  inner_.Update(ipad.data(), ipad.size());
  outer_.Reset();
  outer_.Update(opad.data(), opad.size());
}

Digest256 HmacDrbg::FinishMac(Sha256 inner) const {
  const Digest256 inner_digest = inner.Final();
  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Final();
}

void HmacDrbg::NextV() {
  Sha256 inner = inner_;
  inner.Update(v_.data(), v_.size());
  v_ = FinishMac(inner);
}

void HmacDrbg::UpdateState(const std::uint8_t* provided, std::size_t len) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V); then, only when
  // provided is non-empty, the same again with separator 0x01.
  const std::uint8_t rounds = len == 0 ? 1 : 2;
  for (std::uint8_t separator = 0; separator < rounds; ++separator) {
    Sha256 inner = inner_;
    inner.Update(v_.data(), v_.size());
    inner.Update(&separator, 1);
    inner.Update(provided, len);
    SetKey(FinishMac(inner));
    NextV();
  }
}

void HmacDrbg::Reseed(const std::vector<std::uint8_t>& material) {
  UpdateState(material.data(), material.size());
}

HmacDrbg HmacDrbg::Fork(const std::vector<std::uint8_t>& domain_tag) {
  return ForkRandom(this, domain_tag);
}

HmacDrbg HmacDrbg::Fork(const std::string& domain_tag) {
  return ForkRandom(this,
                    std::vector<std::uint8_t>(domain_tag.begin(),
                                              domain_tag.end()));
}

HmacDrbg ForkRandom(bignum::RandomSource* parent,
                    const std::vector<std::uint8_t>& domain_tag) {
  // Child seed = 32 parent bytes ‖ domain tag. The fixed-width entropy
  // prefix keeps (entropy, tag) pairs unambiguous, and HMAC-DRBG
  // instantiation mixes both through HMAC, so children with distinct
  // tags are computationally independent even under one parent state.
  std::vector<std::uint8_t> seed(32);
  parent->Fill(seed.data(), seed.size());
  seed.insert(seed.end(), domain_tag.begin(), domain_tag.end());
  return HmacDrbg(seed);
}

void HmacDrbg::Fill(std::uint8_t* out, std::size_t len) {
  while (len > 0) {
    NextV();
    const std::size_t take = std::min<std::size_t>(v_.size(), len);
    std::memcpy(out, v_.data(), take);
    out += take;
    len -= take;
  }
  UpdateState(nullptr, 0);
}

void SystemRandom::Fill(std::uint8_t* out, std::size_t len) {
  static thread_local std::random_device rd;
  std::size_t i = 0;
  while (i < len) {
    unsigned int v = rd();
    for (std::size_t b = 0; b < sizeof(v) && i < len; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

}  // namespace crypto
}  // namespace p2drm
