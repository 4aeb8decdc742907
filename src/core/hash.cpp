#include "core/hash.hpp"

#include <cstring>

namespace multival::core {

namespace {

constexpr std::uint64_t kFnvOffsetA = 14695981039346656037ull;
constexpr std::uint64_t kFnvOffsetB = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string CacheKey::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int byte = 7 - (i & 7);
    const auto v = static_cast<unsigned>((word >> (byte * 8)) & 0xff);
    out[static_cast<std::size_t>(2 * i)] = digits[v >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = digits[v & 0xf];
  }
  return out;
}

Hasher::Hasher() : a_(kFnvOffsetA), b_(kFnvOffsetB) {}

void Hasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    a_ = (a_ ^ p[i]) * kFnvPrime;
    b_ = (b_ ^ (p[i] ^ 0x5c)) * kFnvPrime;
  }
}

void Hasher::u64(std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<unsigned char>((v >> (i * 8)) & 0xff);
  }
  bytes(buf, sizeof buf);
}

void Hasher::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Hasher::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

CacheKey Hasher::key() const {
  return CacheKey{splitmix64(a_), splitmix64(b_ ^ a_)};
}

}  // namespace multival::core
