#include "common/compress.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>

#include "common/coding.h"

namespace unilog {

namespace {

// Relaxed is sufficient: the probe is a monotonically increasing tally
// read only at quiescence points in tests and benches.
std::atomic<uint64_t> g_decompress_calls{0};

constexpr size_t kHashBits = 16;
constexpr size_t kHashSize = 1u << kHashBits;

// FastCompressor's head table: 4K entries, 16 KiB.
constexpr size_t kFastHashBits = 12;
constexpr size_t kFastHashSize = 1u << kFastHashBits;
// With no match found, a literal run of r bytes advances the probe by
// 1 + (r >> kFastSkipShift) positions.
constexpr size_t kFastSkipShift = 5;

// Largest up-front reservation Decompress makes from a block's declared
// length; a hostile header must not drive a huge allocation.
constexpr uint64_t kMaxReserve = 1u << 20;

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t Hash4(const char* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

uint32_t FastHash4(const char* p) {
  return (Load32(p) * 2654435761u) >> (32 - kFastHashBits);
}

// Length of the common prefix of `a` and `b`, at most `limit`: eight bytes
// per step, the first differing byte found from the XOR's trailing zeros.
size_t MatchLength(const char* a, const char* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + (std::countr_zero(diff) >> 3);
      } else {
        return len + (std::countl_zero(diff) >> 3);
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

void EmitLiterals(std::string* out, std::string_view input, size_t begin,
                  size_t end) {
  if (begin >= end) return;
  out->push_back('\x00');
  PutVarint64(out, end - begin);
  out->append(input.data() + begin, end - begin);
}

void EmitMatch(std::string* out, size_t dist, size_t len) {
  out->push_back('\x01');
  PutVarint64(out, dist);
  PutVarint64(out, len);
}

// Starts a compress call of `n` bytes on a head table of `size` entries
// holding base + pos + 1: allocates the table on first use, clears it when
// *base + n would wrap, and returns this call's base. Every entry the call
// writes is at most base + n, which is <= the next call's base, so the
// next call reads them all as stale without clearing them.
uint32_t BeginCall(std::vector<uint32_t>* head, size_t size, uint32_t* base,
                   size_t n) {
  if (head->empty()) head->assign(size, 0);
  if (n > std::numeric_limits<uint32_t>::max() - *base) {
    std::fill(head->begin(), head->end(), 0);
    *base = 0;
  }
  const uint32_t call_base = *base;
  *base += static_cast<uint32_t>(n);
  return call_base;
}

// Reads one varint from [*p, end), advancing *p. False when truncated or
// longer than ten bytes.
bool ReadVarint(const char** p, const char* end, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && *p < end; shift += 7) {
    uint8_t byte = static_cast<uint8_t>(*(*p)++);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

// Appends `len` bytes copied from `dist` bytes back in *out. A match that
// overlaps its own output (dist < len) repeats its first `dist` bytes;
// copying chunks that double in size keeps every source range behind the
// write position, so each chunk is one non-overlapping copy.
void AppendMatch(std::string* out, size_t dist, size_t len) {
  const size_t src = out->size() - dist;
  // No reallocation below, so the source pointers stay valid.
  if (out->capacity() < out->size() + len) out->reserve(out->size() + len);
  while (len > 0) {
    const size_t chunk = std::min(len, out->size() - src);
    out->append(out->data() + src, chunk);
    len -= chunk;
  }
}

// Decompress's token decoder. Decodes every token of `tokens` onto *out.
// Every token is checked against the bytes already decoded and against
// the room left under `expected` before any of its bytes is written, so a
// hostile block fails with Corruption instead of allocating.
Status DecodeTokens(std::string_view tokens, uint64_t expected,
                    std::string* out) {
  const char* p = tokens.data();
  const char* const end = p + tokens.size();
  while (p < end) {
    const char tag = *p++;
    uint64_t len = 0;
    if (tag == '\x00') {
      if (!ReadVarint(&p, end, &len)) {
        return Status::Corruption("lz: truncated literal length");
      }
      if (len > static_cast<uint64_t>(end - p)) {
        return Status::Corruption("lz: truncated literal");
      }
      if (len > expected - out->size()) {
        return Status::Corruption("lz: length mismatch");
      }
      out->append(p, len);
      p += len;
    } else if (tag == '\x01') {
      uint64_t dist = 0;
      if (!ReadVarint(&p, end, &dist) || !ReadVarint(&p, end, &len)) {
        return Status::Corruption("lz: truncated match");
      }
      if (dist == 0 || dist > out->size()) {
        return Status::Corruption("lz: bad match distance");
      }
      if (len > expected - out->size()) {
        return Status::Corruption("lz: length mismatch");
      }
      AppendMatch(out, dist, len);
    } else {
      return Status::Corruption("lz: bad token tag");
    }
  }
  return Status::OK();
}

}  // namespace

void Lz::Compressor::CompressTo(std::string_view input, std::string* out) {
  out->clear();
  PutVarint64(out, input.size());
  if (input.empty()) return;

  const char* const src = input.data();
  const size_t n = input.size();
  if (prev_.empty()) prev_.assign(kWindow, 0);
  const uint32_t base = BeginCall(&head_, kHashSize, &base_, n);
  // head[h]: the most recent position with hash h; prev[pos & kPrevMask]:
  // the position before pos in its chain. Both hold base + pos + 1, and an
  // entry <= base (written by an earlier call) ends the chain. A walk from
  // i only reads links of positions within kWindow of i, and no position
  // kWindow or more past those is inserted yet, so the kWindow-entry ring
  // still holds every link it reads.
  constexpr size_t kPrevMask = kWindow - 1;
  static_assert((kWindow & kPrevMask) == 0, "kWindow must be a power of 2");
  uint32_t* const head = head_.data();
  uint32_t* const prev = prev_.data();

  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    uint32_t h = Hash4(src + i);
    const size_t max_len = n - i;
    size_t best_len = 0;
    size_t best_dist = 0;
    // A candidate can only beat best_len if it agrees on every byte up to
    // offset best_len (and on the first kMinMatch bytes before any match
    // is found), so the four bytes ending at `probe` must agree first. A
    // rejected candidate still counts as a chain step.
    size_t probe = kMinMatch - 1;
    uint32_t cand = head[h];
    int steps = 0;
    while (cand > base && steps < kMaxChainSteps) {
      size_t pos = cand - base - 1;
      if (i - pos > kWindow) break;
      if (Load32(src + pos + probe - 3) == Load32(src + i + probe - 3)) {
        size_t len = MatchLength(src + pos, src + i, max_len);
        if (len >= kMinMatch && len > best_len) {
          best_len = len;
          best_dist = i - pos;
          // Nothing beats a match that runs to the end of the input.
          if (len == max_len) break;
          probe = len;
        }
      }
      cand = prev[pos & kPrevMask];
      ++steps;
    }

    if (best_len >= kMinMatch) {
      EmitLiterals(out, input, literal_start, i);
      EmitMatch(out, best_dist, best_len);
      // Insert hash entries for the skipped region (sparsely for speed).
      size_t match_end = i + best_len;
      size_t insert_end =
          match_end + kMinMatch <= n ? match_end : n - kMinMatch + 1;
      size_t step = best_len > 64 ? 4 : 1;
      for (size_t j = i; j < insert_end; j += step) {
        uint32_t hj = Hash4(src + j);
        prev[j & kPrevMask] = head[hj];
        head[hj] = base + static_cast<uint32_t>(j + 1);
      }
      i = match_end;
      literal_start = i;
    } else {
      prev[i & kPrevMask] = head[h];
      head[h] = base + static_cast<uint32_t>(i + 1);
      ++i;
    }
  }
  EmitLiterals(out, input, literal_start, n);
}

std::string Lz::Compressor::Compress(std::string_view input) {
  std::string out;
  CompressTo(input, &out);
  return out;
}

void Lz::FastCompressor::CompressTo(std::string_view input, std::string* out) {
  out->clear();
  PutVarint64(out, input.size());
  if (input.empty()) return;

  const char* const src = input.data();
  const size_t n = input.size();
  const uint32_t base = BeginCall(&head_, kFastHashSize, &base_, n);
  uint32_t* const head = head_.data();

  size_t literal_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    // One candidate: the last probed position with this hash, replaced by
    // i whether or not it matches.
    uint32_t& slot = head[FastHash4(src + i)];
    const uint32_t cand = slot;
    slot = base + static_cast<uint32_t>(i + 1);
    if (cand > base) {
      size_t pos = cand - base - 1;
      if (i - pos <= kWindow && Load32(src + pos) == Load32(src + i)) {
        size_t len = kMinMatch + MatchLength(src + pos + kMinMatch,
                                             src + i + kMinMatch,
                                             n - i - kMinMatch);
        // The skip may have stepped past the match's true start.
        while (i > literal_start && pos > 0 && src[i - 1] == src[pos - 1]) {
          --i;
          --pos;
          ++len;
        }
        EmitLiterals(out, input, literal_start, i);
        EmitMatch(out, i - pos, len);
        i += len;
        literal_start = i;
        continue;
      }
    }
    i += 1 + ((i - literal_start) >> kFastSkipShift);
  }
  EmitLiterals(out, input, literal_start, n);
}

std::string Lz::FastCompressor::Compress(std::string_view input) {
  std::string out;
  CompressTo(input, &out);
  return out;
}

Lz::Compressor& Lz::Pooled() {
  thread_local Compressor compressor;
  return compressor;
}

std::string Lz::Compress(std::string_view input) {
  return Pooled().Compress(input);
}

Result<std::string> Lz::Decompress(std::string_view block) {
  g_decompress_calls.fetch_add(1, std::memory_order_relaxed);
  Decoder dec(block);
  uint64_t expected_len;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&expected_len));
  std::string out;
  out.reserve(static_cast<size_t>(std::min(expected_len, kMaxReserve)));
  UNILOG_RETURN_NOT_OK(
      DecodeTokens(block.substr(dec.position()), expected_len, &out));
  if (out.size() != expected_len) {
    return Status::Corruption("lz: length mismatch");
  }
  return out;
}

uint64_t Lz::DecompressCallCount() {
  return g_decompress_calls.load(std::memory_order_relaxed);
}

void Lz::ResetCompressionProbes() {
  g_decompress_calls.store(0, std::memory_order_relaxed);
}

}  // namespace unilog
