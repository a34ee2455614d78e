#ifndef UNILOG_TESTS_PARTITION_LOG_REFERENCE_H_
#define UNILOG_TESTS_PARTITION_LOG_REFERENCE_H_

// A linear-scan reference for PartitionLog::ReadFrom: it walks every
// retained batch from the front instead of locating the first one, and
// slices with plain per-field arithmetic. Tests compare the production
// read (tail check, then binary search) against it field for field.

#include <algorithm>
#include <cstdint>

#include "broker/partition_log.h"

namespace unilog::broker::testing {

inline Batch ReferenceSlice(const Batch& b, uint64_t start, uint32_t take) {
  Batch s = b;
  const uint32_t drop = static_cast<uint32_t>(start - b.base_offset);
  if (drop == 0 && take == b.count) return s;
  s.base_offset = start;
  s.skip_frames = b.skip_frames + drop;
  s.first_seq = b.first_seq + drop;
  s.count = take;
  s.record_sizes.clear();
  s.payload_bytes = 0;
  for (uint32_t i = drop; i < drop + take; ++i) {
    s.record_sizes.push_back(b.record_sizes[i]);
    s.payload_bytes += b.record_sizes[i];
  }
  return s;
}

inline PartitionLog::ReadResult ReferenceReadFrom(const PartitionLog& log,
                                                  uint64_t from,
                                                  uint64_t limit_offset,
                                                  TimeMs ts_limit) {
  PartitionLog::ReadResult out;
  out.next_offset = std::max(from, log.begin_offset());
  bool stopped_at_limit = false;
  for (const Batch& b : log.batches()) {
    if (b.end_offset() <= from) continue;
    if (b.base_offset >= limit_offset) {
      stopped_at_limit = true;
      break;
    }
    // A batch appended at or past ts_limit ends the read.
    if (b.appended_at >= ts_limit) return out;
    const uint64_t start = std::max(from, b.base_offset);
    const uint64_t stop = std::min(b.end_offset(), limit_offset);
    const uint32_t take =
        start < stop ? static_cast<uint32_t>(stop - start) : 0;
    if (take > 0) {
      out.batches.push_back(ReferenceSlice(b, start, take));
      out.record_count += take;
      out.stored_bytes += b.stored_bytes();
      out.next_offset = start + take;
    }
  }
  if (!stopped_at_limit) {
    out.next_offset = std::max(
        out.next_offset, std::min(limit_offset, log.end_offset()));
  }
  return out;
}

}  // namespace unilog::broker::testing

#endif  // UNILOG_TESTS_PARTITION_LOG_REFERENCE_H_
