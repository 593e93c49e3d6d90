#pragma once
// Stable 64-bit structural hashing for cache keys and fingerprints.
//
// Hash64 folds a stream of integers, doubles and strings into one 64-bit
// digest with the splitmix64 finalizer (the same mixer util::rng uses for
// seed splitting). Digests are a pure function of the value stream — no
// pointers, no addresses, no iteration order of unordered containers — so a
// fingerprint is identical across runs, thread counts and platforms with the
// same double representation. That is the property the content
// fingerprints of machines, schedules, SimParams and fault plans rely on.
//
// Not cryptographic: distinct streams can collide in principle. The caches
// and svc coalescing take that 2^-64 risk only for those large inputs; a
// small request struct (coll::PlanRequest, svc's canonical request) goes
// into a key verbatim rather than through a digest.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace hbsp::util {

class Hash64 {
 public:
  Hash64& add(std::uint64_t value) noexcept {
    state_ = mix(state_ ^ mix(value + 0x9e3779b97f4a7c15ULL));
    return *this;
  }

  Hash64& add_int(std::int64_t value) noexcept {
    return add(static_cast<std::uint64_t>(value));
  }

  /// Hashes the IEEE-754 bit pattern. +0.0 and -0.0 therefore differ, and
  /// two NaNs with equal payloads agree — exactly the "bit-identical"
  /// equality the determinism contract uses everywhere else.
  Hash64& add_double(double value) noexcept {
    return add(std::bit_cast<std::uint64_t>(value));
  }

  Hash64& add_string(std::string_view text) noexcept {
    add(text.size());
    std::size_t offset = 0;
    while (offset < text.size()) {
      const std::size_t chunk = std::min<std::size_t>(8, text.size() - offset);
      std::uint64_t word = 0;
      std::memcpy(&word, text.data() + offset, chunk);
      add(word);
      offset += chunk;
    }
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return mix(state_); }

 private:
  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

}  // namespace hbsp::util
