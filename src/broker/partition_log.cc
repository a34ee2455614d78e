#include "broker/partition_log.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "common/coding.h"
#include "common/compress.h"

namespace unilog::broker {

namespace {

// Parses one LEB128 varint from `buf` at *pos, for the frame parser that
// walks an incrementally decompressed body (Decoder wants a fixed view;
// the body grows between reads).
Status GetVarintFrom(const std::string& buf, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  size_t p = *pos;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (p >= buf.size()) return Status::Corruption("batch frame: truncated varint");
    uint8_t byte = static_cast<uint8_t>(buf[p++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("batch frame: varint too long");
}

uint64_t SumSizes(const std::vector<uint32_t>& sizes, size_t from, size_t n) {
  uint64_t sum = 0;
  for (size_t i = from; i < from + n; ++i) sum += sizes[i];
  return sum;
}

// Walks the frames of `buf` (which `ensure(pos, n)` may grow to cover n
// bytes past pos), checking each included frame and appending its view to
// *frames when non-null. *end receives the position past the last
// included frame.
template <typename Ensure>
Status WalkFrames(const Batch& batch, const std::string& buf, Ensure ensure,
                  std::vector<FrameView>* frames, size_t* end) {
  size_t pos = 0;
  const uint32_t total_frames = batch.skip_frames + batch.count;
  for (uint32_t f = 0; f < total_frames; ++f) {
    // Two varints never exceed 20 bytes; ask for that much headroom
    // before parsing a frame header, then for the payload itself.
    UNILOG_RETURN_NOT_OK(ensure(pos, 20));
    uint64_t logged_at = 0;
    uint64_t len = 0;
    UNILOG_RETURN_NOT_OK(GetVarintFrom(buf, &pos, &logged_at));
    UNILOG_RETURN_NOT_OK(GetVarintFrom(buf, &pos, &len));
    // pos <= buf.size(), so neither comparison wraps on a hostile length.
    if (len > std::numeric_limits<size_t>::max() - pos) {
      return Status::Corruption("batch frame: truncated payload");
    }
    UNILOG_RETURN_NOT_OK(ensure(pos, len));
    if (len > buf.size() - pos) {
      return Status::Corruption("batch frame: truncated payload");
    }
    if (f >= batch.skip_frames) {
      const uint32_t i = f - batch.skip_frames;
      if (i < batch.record_sizes.size() && batch.record_sizes[i] != len) {
        return Status::Corruption("batch frame: size index mismatch");
      }
      if (frames != nullptr) {
        frames->push_back(FrameView{static_cast<TimeMs>(logged_at),
                                    std::string_view(buf.data() + pos, len)});
      }
    }
    pos += len;
  }
  *end = pos;
  return Status::OK();
}

}  // namespace

void AppendBatchFrame(std::string* body, TimeMs logged_at,
                      std::string_view payload) {
  PutVarint64(body, static_cast<uint64_t>(logged_at));
  PutVarint64(body, payload.size());
  body->append(payload.data(), payload.size());
}

Result<size_t> DecodeBatchFrames(const Batch& batch, std::string* body,
                                 std::vector<FrameView>* frames) {
  if (batch.body == nullptr) {
    if (batch.count == 0) return static_cast<size_t>(0);
    return Status::Corruption("batch has records but no body");
  }
  auto no_growth = [](size_t, size_t) { return Status::OK(); };
  const size_t before = frames->size();
  if (before == 0) frames->reserve(batch.count);
  size_t end = 0;
  Status st;
  if (!batch.compressed) {
    st = WalkFrames(batch, *batch.body, no_growth, frames, &end);
  } else {
    // Decompress as far as the last included frame, then take the output
    // and walk it again for the views: the first walk's buffer still
    // grows (and moves) while it runs.
    Lz::IncrementalDecompressor inc(*batch.body);
    st = WalkFrames(
        batch, inc.output(),
        [&inc](size_t pos, size_t n) { return inc.DecodeUntil(pos + n); },
        nullptr, &end);
    if (st.ok()) {
      *body = inc.TakeOutput();
      st = WalkFrames(batch, *body, no_growth, frames, &end);
      // Bytes actually materialized: the decompressor may have run a few
      // token-granular bytes past the last frame, but never into tail
      // frames beyond what a token straddles.
      end = body->size();
    }
  }
  if (!st.ok()) {
    frames->resize(before);
    return st;
  }
  return end;
}

Result<size_t> DecodeBatch(const Batch& batch, std::vector<Record>* out) {
  out->clear();
  std::string body;
  std::vector<FrameView> frames;
  UNILOG_ASSIGN_OR_RETURN(size_t materialized,
                          DecodeBatchFrames(batch, &body, &frames));
  out->reserve(frames.size());
  for (uint32_t i = 0; i < frames.size(); ++i) {
    Record& r = out->emplace_back();
    r.offset = batch.base_offset + i;
    r.producer = batch.producer;
    r.seq = batch.first_seq + i;
    r.appended_at = batch.appended_at(i);
    r.logged_at = frames[i].logged_at;
    r.payload.assign(frames[i].payload);
  }
  return materialized;
}

const Batch& PartitionLog::AppendBatch(Batch b) {
  b.base_offset = next_offset_;
  next_offset_ += b.count;
  bytes_ += b.payload_bytes;
  stored_bytes_ += b.stored_bytes();
  record_count_ += b.count;
  batches_.push_back(std::move(b));
  return batches_.back();
}

bool PartitionLog::AppendMirror(Batch b) {
  if (b.base_offset < next_offset_) return false;
  next_offset_ = b.end_offset();
  bytes_ += b.payload_bytes;
  stored_bytes_ += b.stored_bytes();
  record_count_ += b.count;
  batches_.push_back(std::move(b));
  return true;
}

void PartitionLog::AdvanceTo(uint64_t offset) {
  next_offset_ = std::max(next_offset_, offset);
}

void PartitionLog::TrimTo(uint64_t offset) {
  while (!batches_.empty() && batches_.front().end_offset() <= offset) {
    const Batch& front = batches_.front();
    bytes_ -= front.payload_bytes;
    stored_bytes_ -= front.stored_bytes();
    record_count_ -= front.count;
    begin_ = std::max(begin_, front.end_offset());
    batches_.pop_front();
  }
  // Raise begin_ through gaps, but never into a retained batch: a batch
  // straddling `offset` stays whole, and begin_ stops at its base.
  const uint64_t cap =
      batches_.empty() ? next_offset_ : batches_.front().base_offset;
  begin_ = std::max(begin_, std::min(offset, cap));
}

void PartitionLog::AppendSlice(const Batch& b, uint64_t from, uint32_t take,
                               std::vector<Batch>* out) {
  Batch& s = out->emplace_back(b);  // shares the body
  const uint32_t drop = static_cast<uint32_t>(from - b.base_offset);
  if (drop == 0 && take == b.count) return;
  s.base_offset = from;
  s.skip_frames = b.skip_frames + drop;
  s.first_seq = b.first_seq + drop;
  s.count = take;
  s.record_sizes.assign(b.record_sizes.begin() + drop,
                        b.record_sizes.begin() + drop + take);
  s.payload_bytes = SumSizes(b.record_sizes, drop, take);
  if (!b.record_times.empty()) {
    s.record_times.assign(b.record_times.begin() + drop,
                          b.record_times.begin() + drop + take);
    s.min_appended_at = *std::min_element(s.record_times.begin(),
                                          s.record_times.end());
    s.max_appended_at = *std::max_element(s.record_times.begin(),
                                          s.record_times.end());
  }
}

PartitionLog::ReadResult PartitionLog::ReadFrom(uint64_t from,
                                                uint64_t limit_offset,
                                                TimeMs ts_limit) const {
  ReadResult out;
  ReadInto(from, limit_offset, ts_limit, &out);
  return out;
}

void PartitionLog::ReadInto(uint64_t from, uint64_t limit_offset,
                            TimeMs ts_limit, ReadResult* result) const {
  ReadResult& out = *result;
  out.batches.clear();
  out.record_count = 0;
  out.stored_bytes = 0;
  out.next_offset = std::max(from, begin_);
  // The first batch ending past `from`. Replication and catch-up reads
  // start at or near the tail, so try the last batch before searching.
  auto it = batches_.end();
  if (!batches_.empty() && batches_.back().end_offset() > from) {
    --it;
    if (it != batches_.begin() && std::prev(it)->end_offset() > from) {
      it = std::lower_bound(
          batches_.begin(), it, from,
          [](const Batch& b, uint64_t off) { return b.end_offset() <= off; });
    }
  }
  // At most every batch from here on is read.
  out.batches.reserve(static_cast<size_t>(batches_.end() - it));
  for (; it != batches_.end() && it->base_offset < limit_offset; ++it) {
    const uint64_t start = std::max(from, it->base_offset);
    const uint32_t idx0 = static_cast<uint32_t>(start - it->base_offset);
    const uint64_t stop = std::min(it->end_offset(), limit_offset);
    // `from` at or past limit_offset reads nothing.
    uint32_t take = start < stop ? static_cast<uint32_t>(stop - start) : 0;
    bool ts_stopped = false;
    if (it->min_appended_at >= ts_limit) {
      // Zone map: the whole batch is at or past the boundary.
      take = 0;
      ts_stopped = true;
    } else if (it->max_appended_at >= ts_limit) {
      // Boundary lands inside this batch. Per-record times (non-decreasing)
      // locate the first excluded record without touching the blob.
      uint32_t n = 0;
      while (n < take && it->appended_at(idx0 + n) < ts_limit) ++n;
      take = n;
      ts_stopped = true;
    }
    if (take > 0) {
      AppendSlice(*it, start, take, &out.batches);
      out.record_count += take;
      out.stored_bytes += it->stored_bytes();
      out.next_offset = start + take;
    }
    if (ts_stopped) return;  // hour boundary: stop here
  }
  // Drained every retained record below the limit; gaps between the last
  // batch and the limit hold nothing, so resume from the limit itself.
  if (it == batches_.end()) {
    out.next_offset =
        std::max(out.next_offset, std::min(limit_offset, next_offset_));
  }
}

std::map<std::string, uint64_t> PartitionLog::ProducerHighWatermarks(
    uint64_t below) const {
  std::map<std::string, uint64_t> out;
  for (const Batch& b : batches_) {
    if (b.base_offset >= below) break;
    const uint64_t n = std::min<uint64_t>(b.count, below - b.base_offset);
    if (n == 0) continue;
    uint64_t& hi = out[b.producer];
    hi = std::max(hi, b.first_seq + n - 1);
  }
  return out;
}

}  // namespace unilog::broker
