#ifndef UNILOG_SCRIBE_MESSAGE_H_
#define UNILOG_SCRIBE_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace unilog::exec {
class Executor;
}  // namespace unilog::exec

namespace unilog::scribe {

/// A Scribe log entry: "each log entry consists of two strings, a category
/// and a message" (§2). The category selects routing and the warehouse
/// directory; the message is opaque bytes (compact-Thrift client events,
/// legacy text lines, anything).
struct LogEntry {
  std::string category;
  std::string message;
};

/// Serializes a batch of messages (single category) into the framed file
/// body used throughout the pipeline: each record is a varint length
/// followed by raw message bytes.
std::string FrameMessages(const std::vector<std::string>& messages);

/// Appends one framed record.
void AppendFramed(std::string* out, std::string_view message);

/// Parses a framed file body, appending each message to *out as a view
/// into `body`. Returns Corruption on a malformed stream (with *out left
/// as it was) — the log mover uses this as its sanity check.
Status UnframeMessageViews(std::string_view body,
                           std::vector<std::string_view>* out);

/// UnframeMessageViews, copied out.
Result<std::vector<std::string>> UnframeMessages(std::string_view body);

/// Counts records in a framed body without materializing them.
Result<uint64_t> CountFramed(std::string_view body);

/// On-wire size of one framed record: varint length prefix + payload.
size_t FramedSize(std::string_view message);

/// Builds the warehouse parts of a framed hour on `exec`. Messages are
/// split greedily in order: a part is cut as soon as its framed body
/// reaches `target_bytes` (every part is non-empty; a single oversized
/// message forms its own part). Both vectors are resized to the part
/// count; exec index p frames part p into (*framed)[p] and compresses it
/// with its thread's Lz::Pooled() compressor into (*parts)[p], and writes
/// no other slot. Boundaries depend only on the message sizes, so the
/// bytes are the same at any thread count. Slots are cleared, not freed,
/// so a caller that keeps both vectors across calls reuses their
/// capacity. Timed as the exec stage "mover.build_parts".
void BuildFramedParts(exec::Executor* exec,
                      const std::vector<std::string_view>& messages,
                      uint64_t target_bytes, std::vector<std::string>* framed,
                      std::vector<std::string>* parts);

}  // namespace unilog::scribe

#endif  // UNILOG_SCRIBE_MESSAGE_H_
