#include "broker/partition_log.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/coding.h"
#include "common/compress.h"

namespace unilog::broker {

namespace {

uint64_t SumSizes(const std::vector<uint32_t>& sizes, size_t from, size_t n) {
  uint64_t sum = 0;
  for (size_t i = from; i < from + n; ++i) sum += sizes[i];
  return sum;
}

// Walks the skip_frames + count frames at the front of `buf`, checking
// each included frame against record_sizes and appending its view to
// *frames.
Status WalkFrames(const Batch& batch, std::string_view buf,
                  std::vector<FrameView>* frames) {
  Decoder dec(buf);
  const uint64_t total_frames = uint64_t{batch.skip_frames} + batch.count;
  for (uint64_t f = 0; f < total_frames; ++f) {
    uint64_t logged_at = 0;
    std::string_view payload;
    UNILOG_RETURN_NOT_OK(dec.GetVarint64(&logged_at));
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&payload));
    if (f < batch.skip_frames) continue;
    const uint64_t i = f - batch.skip_frames;
    if (i < batch.record_sizes.size() &&
        batch.record_sizes[i] != payload.size()) {
      return Status::Corruption("batch frame: size index mismatch");
    }
    frames->push_back(FrameView{static_cast<TimeMs>(logged_at), payload});
  }
  return Status::OK();
}

}  // namespace

void AppendBatchFrame(std::string* body, TimeMs logged_at,
                      std::string_view payload) {
  PutVarint64(body, static_cast<uint64_t>(logged_at));
  PutVarint64(body, payload.size());
  body->append(payload.data(), payload.size());
}

Status DecodeBatchFrames(const Batch& batch, std::string* body,
                         std::vector<FrameView>* frames) {
  if (batch.body == nullptr) {
    if (batch.count == 0) return Status::OK();
    return Status::Corruption("batch has records but no body");
  }
  std::string_view buf = *batch.body;
  if (batch.compressed) {
    UNILOG_ASSIGN_OR_RETURN(*body, Lz::Decompress(buf));
    buf = *body;
  }
  const size_t before = frames->size();
  if (before == 0) frames->reserve(batch.count);
  Status st = WalkFrames(batch, buf, frames);
  if (!st.ok()) frames->resize(before);
  return st;
}

Status DecodeBatch(const Batch& batch, std::vector<Record>* out) {
  out->clear();
  std::string body;
  std::vector<FrameView> frames;
  UNILOG_RETURN_NOT_OK(DecodeBatchFrames(batch, &body, &frames));
  out->reserve(frames.size());
  for (uint32_t i = 0; i < frames.size(); ++i) {
    Record& r = out->emplace_back();
    r.offset = batch.base_offset + i;
    r.producer = batch.producer;
    r.seq = batch.first_seq + i;
    r.appended_at = batch.appended_at;
    r.logged_at = frames[i].logged_at;
    r.payload.assign(frames[i].payload);
  }
  return Status::OK();
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
    // Hour boundary: the whole batch is at or past it, so stop here.
    if (it->appended_at >= ts_limit) return;
    const uint64_t start = std::max(from, it->base_offset);
    const uint64_t stop = std::min(it->end_offset(), limit_offset);
    // `from` at or past limit_offset reads nothing.
    if (start >= stop) continue;
    const uint32_t take = static_cast<uint32_t>(stop - start);
    AppendSlice(*it, start, take, &out.batches);
    out.record_count += take;
    out.stored_bytes += it->stored_bytes();
    out.next_offset = stop;
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
