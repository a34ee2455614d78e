#ifndef UNILOG_COMMON_FNV_H_
#define UNILOG_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace unilog {

/// 64-bit FNV-1a accumulator: the one byte hash behind partition
/// assignment (broker::StableHash), group-by shard ownership, RCFile
/// content fingerprints and Oink plan/input fingerprints. Deterministic
/// across platforms and runs: the digest depends only on the bytes mixed
/// in, in order.
class Fnv1a64 {
 public:
  void Mix(std::string_view bytes) {
    for (unsigned char c : bytes) MixByte(c);
  }
  /// Mixes `v`'s eight bytes, least significant first.
  void MixU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<unsigned char>(v >> (i * 8)));
    }
  }
  uint64_t value() const { return h_; }

  static uint64_t OfBytes(std::string_view bytes) {
    Fnv1a64 h;
    h.Mix(bytes);
    return h.value();
  }

 private:
  void MixByte(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;  // FNV prime
  }

  // Not the standard FNV offset basis 14695981039346656037
  // (0xcbf29ce484222325) but that number with its last digit dropped,
  // 1469598103934665603 (0x14650fb0739d0383). It stays: partition
  // assignment and every pinned digest depend on it.
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace unilog

#endif  // UNILOG_COMMON_FNV_H_
