#ifndef UNILOG_TESTS_LZ_REFERENCE_H_
#define UNILOG_TESTS_LZ_REFERENCE_H_

// The Lz compressor frozen as it was before its word-wise rewrite: fresh
// hash-chain state per call, matches extended one byte at a time, every
// chain candidate compared in full. Lz::Compressor must emit exactly these
// bytes for every input; codec tests compare against this copy, so none of
// them checks the compressor against itself. The constants are copied too,
// so a change to Lz::kMinMatch, kWindow or kMaxChainSteps shows up here.
//
// FastCompress is the same kind of copy of Lz::FastCompressor, the
// single-probe parse the aggregators stage with.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"

namespace unilog::lz_reference {

inline constexpr size_t kMinMatch = 4;
inline constexpr size_t kWindow = 64 * 1024;
inline constexpr int kMaxChainSteps = 32;
inline constexpr size_t kHashBits = 16;

inline uint32_t Hash4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void EmitLiterals(std::string* out, std::string_view input,
                         size_t begin, size_t end) {
  if (begin >= end) return;
  out->push_back('\x00');
  PutVarint64(out, end - begin);
  out->append(input.data() + begin, end - begin);
}

/// The reference compressed block for `input`.
inline std::string Compress(std::string_view input) {
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) return out;

  // head[h]: most recent position with hash h, plus one (0 = empty).
  // prev[i]: the previous position in i's chain, plus one.
  std::vector<uint32_t> head(size_t{1} << kHashBits, 0);
  std::vector<uint32_t> prev(input.size(), 0);

  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= input.size()) {
    uint32_t h = Hash4(input.data() + i);
    size_t best_len = 0;
    size_t best_dist = 0;
    uint32_t cand = head[h];
    int steps = 0;
    while (cand != 0 && steps < kMaxChainSteps) {
      size_t pos = cand - 1;
      if (i - pos > kWindow) break;
      size_t len = 0;
      size_t max_len = input.size() - i;
      while (len < max_len && input[pos + len] == input[i + len]) ++len;
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_dist = i - pos;
      }
      cand = prev[pos];
      ++steps;
    }

    if (best_len >= kMinMatch) {
      EmitLiterals(&out, input, literal_start, i);
      out.push_back('\x01');
      PutVarint64(&out, best_dist);
      PutVarint64(&out, best_len);
      // Insert the matched region, every 4th position for long matches.
      size_t match_end = i + best_len;
      size_t insert_end = match_end + kMinMatch <= input.size()
                              ? match_end
                              : input.size() - kMinMatch + 1;
      size_t step = best_len > 64 ? 4 : 1;
      for (size_t j = i; j < insert_end; j += step) {
        uint32_t hj = Hash4(input.data() + j);
        prev[j] = head[hj];
        head[hj] = static_cast<uint32_t>(j + 1);
      }
      i = match_end;
      literal_start = i;
    } else {
      prev[i] = head[h];
      head[h] = static_cast<uint32_t>(i + 1);
      ++i;
    }
  }
  EmitLiterals(&out, input, literal_start, input.size());
  return out;
}

inline constexpr size_t kFastHashBits = 12;
inline constexpr size_t kFastSkipShift = 5;

inline uint32_t FastHash4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kFastHashBits);
}

/// The reference block Lz::FastCompressor must emit for `input`: fresh
/// state, one candidate per probed position, every byte compared on its
/// own.
inline std::string FastCompress(std::string_view input) {
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) return out;

  // head[h]: the most recent probed position with hash h, plus one.
  std::vector<uint32_t> head(size_t{1} << kFastHashBits, 0);
  const size_t n = input.size();
  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t h = FastHash4(input.data() + i);
    const uint32_t cand = head[h];
    head[h] = static_cast<uint32_t>(i + 1);
    size_t len = 0;
    size_t pos = 0;
    if (cand != 0 && i - (cand - 1) <= kWindow) {
      pos = cand - 1;
      while (i + len < n && input[pos + len] == input[i + len]) ++len;
    }
    if (len >= kMinMatch) {
      // Extend backward, but not past the last token.
      while (i > literal_start && pos > 0 && input[i - 1] == input[pos - 1]) {
        --i;
        --pos;
        ++len;
      }
      EmitLiterals(&out, input, literal_start, i);
      out.push_back('\x01');
      PutVarint64(&out, i - pos);
      PutVarint64(&out, len);
      i += len;
      literal_start = i;
    } else {
      i += 1 + ((i - literal_start) >> kFastSkipShift);
    }
  }
  EmitLiterals(&out, input, literal_start, n);
  return out;
}

}  // namespace unilog::lz_reference

#endif  // UNILOG_TESTS_LZ_REFERENCE_H_
