#ifndef UNILOG_SCRIBE_MESSAGE_H_
#define UNILOG_SCRIBE_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

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

/// Replicates the serial flush loop's greedy part split: messages are
/// framed in order and a part is cut as soon as its framed body reaches
/// `target_bytes` (every part is non-empty; a single oversized message
/// forms its own part). Returns the exclusive end index of each part.
/// Boundaries depend only on the message sizes, never on scheduling, which
/// is what lets the parallel mover build and compress parts in workers yet
/// stage bytes identical to the serial path.
std::vector<size_t> PlanFramedParts(
    const std::vector<std::string_view>& messages, uint64_t target_bytes);

/// Appends the framed records for messages[begin, end) to *out.
void AppendFramedRange(std::string* out,
                       const std::vector<std::string_view>& messages,
                       size_t begin, size_t end);

}  // namespace unilog::scribe

#endif  // UNILOG_SCRIBE_MESSAGE_H_
