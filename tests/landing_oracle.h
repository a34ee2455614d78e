// Frozen oracle for columnar warehouse landing: the columnar branch of
// LogMover::CommitMergedHour as it was before landing parsed messages in
// place, writing RCFile v2 (or v1). Every message is deserialized into an
// owning ClientEvent, each event is copied into a row-at-a-time writer's
// pending rows, and a full group is encoded one column at a time. Parts
// rotate after any row once the flushed body reaches the target size, and
// parse failures go verbatim to one framed-compressed sidecar after the
// parts. Landing writes v3 and the RCFile reader reads only v3, so the
// oracle also returns the rows it landed: tests compare landing with it by
// rows, part counts and the sidecar, which is still byte-identical. The
// writer is also the one source of v1 and v2 fixtures, and ScanV1Names is
// the one reader of v1 bytes (E16's names-only query).
//
// Two hostile-input fixes are frozen in with it: details entries are never
// reserved from the claimed map count (a 7-byte message would otherwise
// abort with std::bad_alloc), and nesting is bounded by the CompactReader
// it parses with. Deliberately slow and simple: tests compare
// the shipped landing against it and never run it on a hot path.

#ifndef UNILOG_TESTS_LANDING_ORACLE_H_
#define UNILOG_TESTS_LANDING_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "columnar/rcfile.h"
#include "common/coding.h"
#include "common/compress.h"
#include "common/result.h"
#include "common/status.h"
#include "events/client_event.h"
#include "scribe/message.h"
#include "thrift/compact_protocol.h"

namespace unilog::landing_oracle {

/// The owning client-event parser: one allocation per string field.
inline Result<events::ClientEvent> Deserialize(std::string_view data) {
  using events::ClientEvent;
  using thrift::TType;
  thrift::CompactReader r(data);
  ClientEvent event;
  std::string_view sv;
  UNILOG_RETURN_NOT_OK(r.BeginStruct());
  while (true) {
    int16_t id;
    TType type;
    bool stop = false, bval = false;
    UNILOG_RETURN_NOT_OK(r.ReadFieldHeader(&id, &type, &stop, &bval));
    if (stop) break;
    switch (id) {
      case ClientEvent::kFieldInitiator: {
        if (type != TType::kI32) return Status::Corruption("bad initiator");
        int32_t v;
        UNILOG_RETURN_NOT_OK(r.ReadI32(&v));
        if (v < 0 || v > 3) return Status::Corruption("bad initiator value");
        event.initiator = static_cast<events::EventInitiator>(v);
        break;
      }
      case ClientEvent::kFieldEventName:
        if (type != TType::kString) return Status::Corruption("bad name");
        UNILOG_RETURN_NOT_OK(r.ReadString(&sv));
        event.event_name.assign(sv);
        break;
      case ClientEvent::kFieldUserId:
        if (type != TType::kI64) return Status::Corruption("bad user_id");
        UNILOG_RETURN_NOT_OK(r.ReadI64(&event.user_id));
        break;
      case ClientEvent::kFieldSessionId:
        if (type != TType::kString) return Status::Corruption("bad session");
        UNILOG_RETURN_NOT_OK(r.ReadString(&sv));
        event.session_id.assign(sv);
        break;
      case ClientEvent::kFieldIp:
        if (type != TType::kString) return Status::Corruption("bad ip");
        UNILOG_RETURN_NOT_OK(r.ReadString(&sv));
        event.ip.assign(sv);
        break;
      case ClientEvent::kFieldTimestamp:
        if (type != TType::kI64) return Status::Corruption("bad timestamp");
        UNILOG_RETURN_NOT_OK(r.ReadI64(&event.timestamp));
        break;
      case ClientEvent::kFieldEventDetails: {
        if (type != TType::kMap) return Status::Corruption("bad details");
        TType kt, vt;
        uint32_t count;
        UNILOG_RETURN_NOT_OK(r.ReadMapHeader(&kt, &vt, &count));
        if (count > 0 && (kt != TType::kString || vt != TType::kString)) {
          return Status::Corruption("details must be map<string,string>");
        }
        event.details.clear();
        for (uint32_t i = 0; i < count; ++i) {
          std::string_view k, v;
          UNILOG_RETURN_NOT_OK(r.ReadString(&k));
          UNILOG_RETURN_NOT_OK(r.ReadString(&v));
          event.details.emplace_back(k, v);
        }
        break;
      }
      default:
        UNILOG_RETURN_NOT_OK(r.SkipValue(type, /*from_field_header=*/true));
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes");
  return event;
}

inline uint32_t Fnv1a(std::string_view data) {
  uint32_t h = 2166136261u;
  for (unsigned char c : data) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

/// One column of a v1 or v2 group, encoded from the pending rows.
inline std::string EncodeColumn(const std::vector<events::ClientEvent>& rows,
                                columnar::EventColumn column, int version,
                                const std::vector<uint32_t>& name_ids,
                                const std::vector<uint32_t>& init_ids) {
  using columnar::EventColumn;
  std::string out;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& ev = rows[i];
    switch (column) {
      case EventColumn::kInitiator:
        if (version >= 2) {
          PutVarint32(&out, init_ids[i]);
        } else {
          PutVarint64(&out, static_cast<uint64_t>(ev.initiator));
        }
        break;
      case EventColumn::kEventName:
        if (version >= 2) {
          PutVarint32(&out, name_ids[i]);
        } else {
          PutLengthPrefixed(&out, ev.event_name);
        }
        break;
      case EventColumn::kUserId:
        PutSignedVarint64(&out, ev.user_id);
        break;
      case EventColumn::kSessionId:
        PutLengthPrefixed(&out, ev.session_id);
        break;
      case EventColumn::kIp:
        PutLengthPrefixed(&out, ev.ip);
        break;
      case EventColumn::kTimestamp:
        PutSignedVarint64(&out, ev.timestamp);
        break;
      case EventColumn::kDetails:
        PutVarint64(&out, ev.details.size());
        for (const auto& [k, v] : ev.details) {
          PutLengthPrefixed(&out, k);
          PutLengthPrefixed(&out, v);
        }
        break;
    }
  }
  return out;
}

/// The row-at-a-time RCFile writer: Add copies the event into pending_,
/// and a full group is encoded column by column.
class RowWriter {
 public:
  RowWriter(std::string* out, size_t rows_per_group = 1024,
            int format_version = 2)
      : out_(out),
        rows_per_group_(std::max<size_t>(1, rows_per_group)),
        version_(format_version) {}

  void Add(const events::ClientEvent& event) {
    pending_.push_back(event);
    if (pending_.size() >= rows_per_group_) FlushGroup();
  }

  void Finish() { FlushGroup(); }

 private:
  void FlushGroup() {
    using columnar::EventColumn;
    using columnar::kEventColumns;
    if (pending_.empty()) return;
    if (version_ < 2) {
      PutVarint64(out_, pending_.size());
      for (int c = 0; c < kEventColumns; ++c) {
        PutLengthPrefixed(out_,
                          Lz::Compress(EncodeColumn(
                              pending_, static_cast<EventColumn>(c), version_,
                              {}, {})));
      }
      pending_.clear();
      return;
    }
    if (!wrote_magic_) {
      out_->append("RCF2");  // the v2 magic
      wrote_magic_ = true;
    }
    std::string header;
    PutVarint64(&header, pending_.size());
    int64_t min_ts = pending_[0].timestamp, max_ts = pending_[0].timestamp;
    int64_t min_uid = pending_[0].user_id, max_uid = pending_[0].user_id;
    for (const auto& ev : pending_) {
      min_ts = std::min<int64_t>(min_ts, ev.timestamp);
      max_ts = std::max<int64_t>(max_ts, ev.timestamp);
      min_uid = std::min(min_uid, ev.user_id);
      max_uid = std::max(max_uid, ev.user_id);
    }
    PutSignedVarint64(&header, min_ts);
    PutSignedVarint64(&header, max_ts);
    PutSignedVarint64(&header, min_uid);
    PutSignedVarint64(&header, max_uid);

    std::vector<uint32_t> name_ids, init_ids;
    std::map<std::string_view, uint32_t> name_index;
    std::vector<std::string_view> name_entries;
    for (const auto& ev : pending_) {
      auto [it, inserted] = name_index.try_emplace(
          ev.event_name, static_cast<uint32_t>(name_entries.size()));
      if (inserted) name_entries.push_back(ev.event_name);
      name_ids.push_back(it->second);
    }
    uint32_t init_index[4] = {~0u, ~0u, ~0u, ~0u};
    std::vector<uint32_t> init_entries;
    for (const auto& ev : pending_) {
      auto v = static_cast<uint32_t>(ev.initiator);
      if (init_index[v] == ~0u) {
        init_index[v] = static_cast<uint32_t>(init_entries.size());
        init_entries.push_back(v);
      }
      init_ids.push_back(init_index[v]);
    }
    PutVarint64(&header, name_entries.size());
    for (const auto& name : name_entries) PutLengthPrefixed(&header, name);
    PutVarint64(&header, init_entries.size());
    for (uint32_t v : init_entries) PutVarint32(&header, v);

    std::string blobs;
    for (int c = 0; c < kEventColumns; ++c) {
      PutLengthPrefixed(&blobs,
                        Lz::Compress(EncodeColumn(
                            pending_, static_cast<EventColumn>(c), version_,
                            name_ids, init_ids)));
    }
    out_->append(header);
    PutVarint32(out_, Fnv1a(header));
    PutVarint32(out_, Fnv1a(blobs));
    out_->append(blobs);
    pending_.clear();
  }

  std::string* out_;
  size_t rows_per_group_;
  int version_;
  bool wrote_magic_ = false;
  std::vector<events::ClientEvent> pending_;
};

/// What columnar landing writes for one merged hour: the parts in part
/// order (RCFile parts, then the sidecar if any message failed to parse),
/// and the rows of the RCFile parts in order.
struct Landing {
  std::vector<std::string> parts;
  std::vector<events::ClientEvent> rows;
  uint64_t parse_fallbacks = 0;
};

/// The streaming columnar landing of `merged` (staged messages, then
/// broker records, in merge order).
inline Landing LandColumnar(const std::vector<std::string>& merged,
                            uint64_t target_file_bytes) {
  Landing out;
  std::string body;
  auto writer = std::make_unique<RowWriter>(&body);
  size_t rows_in_part = 0;
  auto flush = [&] {
    if (rows_in_part == 0) return;
    writer->Finish();
    out.parts.push_back(body);
    body.clear();
    writer = std::make_unique<RowWriter>(&body);
    rows_in_part = 0;
  };
  std::string fallback;
  for (const std::string& m : merged) {
    auto ev = Deserialize(m);
    if (!ev.ok()) {
      scribe::AppendFramed(&fallback, m);
      ++out.parse_fallbacks;
      continue;
    }
    writer->Add(*ev);
    out.rows.push_back(std::move(*ev));
    ++rows_in_part;
    if (body.size() >= target_file_bytes) flush();
  }
  flush();
  if (!fallback.empty()) out.parts.push_back(Lz::Compress(fallback));
  return out;
}

/// The names-only query over a v1 body from RowWriter: per group the row
/// count, then seven Lz column blobs, of which only the event-name blob is
/// inflated. Appends every row's name to *names and adds the stored size
/// of each inflated blob to *bytes_decompressed.
inline Status ScanV1Names(std::string_view body,
                          std::vector<std::string>* names,
                          uint64_t* bytes_decompressed) {
  using columnar::EventColumn;
  Decoder dec(body);
  while (!dec.AtEnd()) {
    uint64_t rows = 0;
    UNILOG_RETURN_NOT_OK(dec.GetVarint64(&rows));
    for (int c = 0; c < columnar::kEventColumns; ++c) {
      std::string_view blob;
      UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&blob));
      if (c != static_cast<int>(EventColumn::kEventName)) continue;
      *bytes_decompressed += blob.size();
      UNILOG_ASSIGN_OR_RETURN(std::string column, Lz::Decompress(blob));
      Decoder names_column(column);
      for (uint64_t r = 0; r < rows; ++r) {
        std::string_view name;
        UNILOG_RETURN_NOT_OK(names_column.GetLengthPrefixed(&name));
        names->emplace_back(name);
      }
      if (!names_column.AtEnd()) {
        return Status::Corruption("v1: names column overrun");
      }
    }
  }
  return Status::OK();
}

}  // namespace unilog::landing_oracle

#endif  // UNILOG_TESTS_LANDING_ORACLE_H_
