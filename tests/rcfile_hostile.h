// Hand-built hostile RCFile v3 bodies, shared by the columnar hostile-input
// tests and the allocation guard. Each is one row group whose checksums
// are recomputed over the damaged bytes, so only the column encodings
// themselves can betray it.

#ifndef UNILOG_TESTS_RCFILE_HOSTILE_H_
#define UNILOG_TESTS_RCFILE_HOSTILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "columnar/rcfile.h"
#include "common/coding.h"

namespace unilog::rcfile_hostile {

/// The group checksum: the FNV-1a step over little-endian 32-bit
/// words, then the 1-3 byte tail one byte at a time.
inline uint32_t V3Checksum(std::string_view data) {
  uint32_t h = 2166136261u;
  size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    uint32_t w = 0;
    for (int k = 3; k >= 0; --k) {
      w = (w << 8) | static_cast<unsigned char>(data[i + k]);
    }
    h = (h ^ w) * 16777619u;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 16777619u;
  }
  return h;
}

/// A packed run as stored: the width byte, then the packed bytes.
inline std::string Run(int width, const std::string& bytes) {
  return std::string(1, static_cast<char>(width)) + bytes;
}

/// A varint.
inline std::string Varint(uint64_t v) {
  std::string out;
  PutVarint64(&out, v);
  return out;
}

/// A length-prefixed string.
inline std::string Prefixed(std::string_view s) {
  std::string out;
  PutLengthPrefixed(&out, s);
  return out;
}

/// The rows of ValidBlobs().
inline constexpr uint64_t kRows = 4;

/// The seven column blobs of a valid 4-row group: every row has the
/// header's one initiator and event name, user id and timestamp 0, session
/// "s", ip "10.0.0.1" and no details.
inline std::vector<std::string> ValidBlobs() {
  using columnar::EventColumn;
  std::vector<std::string> blobs(columnar::kEventColumns);
  auto blob = [&blobs](EventColumn c) -> std::string& {
    return blobs[static_cast<int>(c)];
  };
  blob(EventColumn::kInitiator) = Run(0, "");
  blob(EventColumn::kEventName) = Run(0, "");
  blob(EventColumn::kUserId) = Run(0, "");
  blob(EventColumn::kSessionId) = Varint(1) + Prefixed("s") + Run(0, "");
  blob(EventColumn::kIp) = Varint(1) + Prefixed("10.0.0.1") + Run(0, "");
  blob(EventColumn::kTimestamp) = std::string(kRows, '\0');  // zero deltas
  // No page entries, zero counts, no codes.
  blob(EventColumn::kDetails) = Varint(0) + Run(0, "") + Varint(0) + Run(0, "");
  return blobs;
}

/// A v3 file of one group claiming `rows` rows over `blobs`, with one
/// event name ("web:e") and one initiator in its header.
inline std::string Group(uint64_t rows, const std::vector<std::string>& blobs) {
  std::string header;
  PutVarint64(&header, rows);
  for (int i = 0; i < 4; ++i) PutSignedVarint64(&header, 0);
  PutVarint64(&header, 1);
  PutLengthPrefixed(&header, "web:e");
  PutVarint64(&header, 1);
  PutVarint64(&header, 0);
  std::string section;
  for (const std::string& blob : blobs) PutLengthPrefixed(&section, blob);
  std::string body = std::string(columnar::kRcFileMagic) + header;
  PutVarint32(&body, V3Checksum(header));
  PutVarint32(&body, V3Checksum(section));
  return body + section;
}

/// ValidBlobs with column `c` replaced by `blob`, as a 4-row group.
inline std::string WithColumn(columnar::EventColumn c, std::string blob) {
  std::vector<std::string> blobs = ValidBlobs();
  blobs[static_cast<int>(c)] = std::move(blob);
  return Group(kRows, blobs);
}

struct Bomb {
  std::string what;
  std::string body;
  std::string reason;  // in the Corruption status it must read back as
};

/// Every v3 bomb, with the check that must catch it.
inline std::vector<Bomb> V3Bombs() {
  using columnar::EventColumn;
  const std::string pair = Prefixed("k") + Prefixed("v");
  // Row 0 claims 2^28 pairs (32-bit counts, little-endian).
  std::string many_pairs(4 * kRows, '\0');
  many_pairs[3] = '\x10';
  return {
      {"user ids 65 bits wide",
       WithColumn(EventColumn::kUserId, Run(65, std::string(33, '\0'))),
       "bit width above 64"},
      {"initiator run one byte long",
       WithColumn(EventColumn::kInitiator, Run(1, std::string(2, '\0'))),
       "column overrun"},
      {"initiator run one byte short",
       WithColumn(EventColumn::kInitiator, Run(8, std::string(3, '\0'))),
       "packed run past its column"},
      {"event-name code past the header dictionary",
       WithColumn(EventColumn::kEventName, Run(1, "\x02")),
       "code past its page"},
      {"session code past its page",
       WithColumn(EventColumn::kSessionId,
                  Varint(1) + Prefixed("s") + Run(1, "\x08")),
       "code past its page"},
      {"details code past its page",
       WithColumn(EventColumn::kDetails, Varint(1) + pair + Run(1, "\x01") +
                                             Varint(1) + Run(1, "\x01")),
       "code past its page"},
      {"details count past the codes left",  // row 0: 3 pairs, 2 codes
       WithColumn(EventColumn::kDetails, Varint(1) + pair + Run(2, "\x03") +
                                             Varint(2) +
                                             Run(1, std::string(1, '\0'))),
       "details count past the codes left"},
      {"details codes claimed at width zero",
       WithColumn(EventColumn::kDetails, Varint(1) + pair +
                                             Run(32, many_pairs) +
                                             Varint(uint64_t{1} << 28) +
                                             Run(0, "")),
       "details codes without a width"},
      {"session page claiming 2^32 entries",
       WithColumn(EventColumn::kSessionId,
                  Varint(uint64_t{1} << 32) + Prefixed("s") + Run(0, "")),
       "page larger than its column"},
      {"details page claiming 2^32 entries",
       WithColumn(EventColumn::kDetails, Varint(uint64_t{1} << 32) + pair +
                                             Run(0, "") + Varint(0) +
                                             Run(0, "")),
       "page larger than its column"},
      {"row-count bomb over tiny columns",
       Group(columnar::kMaxRowsPerGroup, ValidBlobs()),
       "column shorter than its row count"},
  };
}

}  // namespace unilog::rcfile_hostile

#endif  // UNILOG_TESTS_RCFILE_HOSTILE_H_
