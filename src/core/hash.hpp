// Canonical content hashing: the one 128-bit content hasher of the library.
//
// A CacheKey is a 128-bit digest of the *semantic* object being keyed --
// an LTS, an IMC, a CTMC, a mu-calculus formula or a plan subtree -- not
// of its textual encoding, so two .aut renderings of the same model
// (different whitespace, different label-interning order) map to the same
// key.  Model digests (the hash_append overloads next to each model type)
// cover everything the solvers observe: state count, initial
// state/distribution, and every transition in insertion order with its
// label *text* (label ids are an artefact of interning order and are
// never hashed).
//
// The hash is two independent FNV-1a-64 lanes finalised with a splitmix64
// mix.  It is a content-address for caching, not a cryptographic digest.
// Keys name the serve tier's on-disk entries, so the digest of a given
// input must never change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace multival::core {

/// 128-bit content key.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;

  /// 32 lowercase hex characters (used as the on-disk file name).
  [[nodiscard]] std::string hex() const;
};

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental canonical hasher.  All multi-byte values are fed in a fixed
/// little-endian order and strings are length-prefixed, so the digest does
/// not depend on platform layout or on field concatenation ambiguities.
class Hasher {
 public:
  Hasher();

  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  /// Length-prefixed, so str("ab")+str("c") != str("a")+str("bc").
  void str(std::string_view s);
  /// Hashes the IEEE-754 bit pattern (rates are compared bitwise by the
  /// solvers, so the key must distinguish them bitwise too).
  void f64(double v);

  [[nodiscard]] CacheKey key() const;

 private:
  std::uint64_t a_;
  std::uint64_t b_;
};

}  // namespace multival::core
