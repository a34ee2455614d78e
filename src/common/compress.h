#ifndef UNILOG_COMMON_COMPRESS_H_
#define UNILOG_COMMON_COMPRESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace unilog {

/// A self-contained LZ77-family block compressor. The paper's aggregators
/// compress log data "on the fly" as it is written to staging HDFS, and the
/// materialized session sequences are stored compressed; this codec plays
/// that role (no external zlib dependency — built from scratch per the
/// reproduction rules).
///
/// Format: a varint uncompressed length, then a token stream. Each token is
/// either a literal run (tag 0x00, varint length, raw bytes) or a back-
/// reference (tag 0x01, varint distance >= 1, varint length >= kMinMatch)
/// into the previously decoded output. 4-byte minimum match; 64 KiB window.
///
/// Two parses write that format, each for fixed callers; any block of
/// either decodes with the one decoder, Decompress:
///
///   Compressor      greedy, 32-step hash chains. Every byte that is kept
///                   or pinned: warehouse parts, the columnar fallback
///                   sidecar, OKC1 artifacts, session sequences, the
///                   daemon's broker batches (replayed byte for byte by the
///                   e2e bench), Lz::Compress and Lz::Pooled().
///   FastCompressor  greedy, one candidate per position. The aggregators'
///                   staged rolls: the log mover reads each staged file
///                   once and compresses the merged hour again with
///                   Compressor, so the staged ratio never reaches the
///                   warehouse, and the roll sits on the simulator thread.
class Lz {
 public:
  static constexpr size_t kMinMatch = 4;
  static constexpr size_t kWindow = 64 * 1024;
  static constexpr int kMaxChainSteps = 32;

  /// Reusable compression state: the 64K-entry hash head table and the
  /// window-sized chain ring, 256 KiB each, kept across calls so the
  /// ingest hot path (one Compress per staged file / per roll) allocates
  /// nothing per call and holds the same memory whatever the input size.
  /// Entries are offset by a per-call base, so reuse needs no per-call
  /// clear either. Output depends only on the input: every block is
  /// byte-identical to a fresh compressor's, and to the frozen
  /// byte-at-a-time reference in tests/lz_reference.h.
  ///
  /// Not thread-safe; one Compressor per thread. Lz::Pooled() hands out a
  /// thread-local instance.
  class Compressor {
   public:
    Compressor() = default;

    Compressor(const Compressor&) = delete;
    Compressor& operator=(const Compressor&) = delete;

    /// Clears *out and writes the compressed block into it, reusing the
    /// string's capacity. Never fails; incompressible data grows by a few
    /// bytes of framing.
    void CompressTo(std::string_view input, std::string* out);

    /// Convenience wrapper returning a fresh string.
    std::string Compress(std::string_view input);

   private:
    // head_[h]: most recent position with hash h; prev_[pos % kWindow]:
    // the position before pos in its chain. Both hold base + pos + 1,
    // where base_ is the total size of the inputs since the last reset. An
    // entry <= the current call's base was written by an earlier call and
    // ends the chain, which resets both tables per call without touching
    // them.
    std::vector<uint32_t> head_;
    std::vector<uint32_t> prev_;
    uint32_t base_ = 0;
  };

  /// The staging parse: at each position it probes the one earlier
  /// position with the same 4-byte hash in a 4K-entry head table (16 KiB,
  /// the same `base + pos + 1` entries and wrap reset as Compressor's),
  /// extends a match backward into the pending literals, and, while no
  /// match is found, steps further the longer the literal run grows, so
  /// incompressible input is skimmed. Emits more, shorter tokens than
  /// Compressor (a lower ratio) in well under half its time. Output
  /// depends only on the input: every block is byte-identical to a fresh
  /// FastCompressor's, and to lz_reference::FastCompress in
  /// tests/lz_reference.h.
  ///
  /// Not thread-safe; one FastCompressor per thread.
  class FastCompressor {
   public:
    FastCompressor() = default;

    FastCompressor(const FastCompressor&) = delete;
    FastCompressor& operator=(const FastCompressor&) = delete;

    /// Clears *out and writes the compressed block into it, reusing the
    /// string's capacity. Never fails.
    void CompressTo(std::string_view input, std::string* out);

    /// Convenience wrapper returning a fresh string.
    std::string Compress(std::string_view input);

   private:
    // head_[h]: the most recent probed position with hash h, as
    // base_ + pos + 1 (see Compressor).
    std::vector<uint32_t> head_;
    uint32_t base_ = 0;
  };

  /// Compresses `input` using a thread-local pooled Compressor, so every
  /// existing call site gets state reuse for free.
  static std::string Compress(std::string_view input);

  /// The thread-local pooled Compressor (for callers that also want the
  /// CompressTo output-buffer reuse, e.g. the log mover's workers).
  static Compressor& Pooled();

  /// Decompresses a block produced by Compress. Returns Corruption on
  /// malformed input, including a token that would run past the block's
  /// declared length. Beyond a 1 MiB reservation, memory grows with the
  /// bytes actually decoded, never with the declared length alone.
  static Result<std::string> Decompress(std::string_view block);

  /// Process-wide count of Decompress calls. Tests use this probe to
  /// assert the batched delivery path decompresses payload bytes only at
  /// landing.
  static uint64_t DecompressCallCount();

  /// Resets the probe counter to zero.
  static void ResetCompressionProbes();
};

}  // namespace unilog

#endif  // UNILOG_COMMON_COMPRESS_H_
