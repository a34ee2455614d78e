#include "events/client_event.h"

#include "common/coding.h"
#include "thrift/compact_protocol.h"

namespace unilog::events {

using thrift::CompactReader;
using thrift::CompactWriter;
using thrift::TType;

const char* EventInitiatorName(EventInitiator e) {
  switch (e) {
    case EventInitiator::kClientUser:
      return "client_user";
    case EventInitiator::kClientApp:
      return "client_app";
    case EventInitiator::kServerUser:
      return "server_user";
    case EventInitiator::kServerApp:
      return "server_app";
  }
  return "unknown";
}

void ClientEvent::SerializeTo(std::string* out) const {
  CompactWriter w(out);
  w.BeginStruct();
  w.WriteI32Field(kFieldInitiator, static_cast<int32_t>(initiator));
  w.WriteStringField(kFieldEventName, event_name);
  w.WriteI64Field(kFieldUserId, user_id);
  w.WriteStringField(kFieldSessionId, session_id);
  w.WriteStringField(kFieldIp, ip);
  w.WriteI64Field(kFieldTimestamp, timestamp);
  if (!details.empty()) {
    w.WriteMapFieldHeader(kFieldEventDetails, TType::kString, TType::kString,
                          static_cast<uint32_t>(details.size()));
    for (const auto& [k, v] : details) {
      w.WriteString(k);
      w.WriteString(v);
    }
  }
  w.EndStruct();
}

std::string ClientEvent::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

Status ReadClientEventBody(std::string_view data, ClientEventView* event,
                           std::vector<DetailView>* details) {
  const size_t details_begin = details->size();
  CompactReader r(data);
  *event = ClientEventView{};
  event->details_begin = event->details_end = details_begin;
  Status st = [&]() -> Status {
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
          if (v < 0 || v > 3) {
            return Status::Corruption("bad initiator value");
          }
          event->initiator = static_cast<EventInitiator>(v);
          break;
        }
        case ClientEvent::kFieldEventName:
          if (type != TType::kString) return Status::Corruption("bad name");
          UNILOG_RETURN_NOT_OK(r.ReadString(&event->event_name));
          break;
        case ClientEvent::kFieldUserId:
          if (type != TType::kI64) return Status::Corruption("bad user_id");
          UNILOG_RETURN_NOT_OK(r.ReadI64(&event->user_id));
          break;
        case ClientEvent::kFieldSessionId:
          if (type != TType::kString) {
            return Status::Corruption("bad session");
          }
          UNILOG_RETURN_NOT_OK(r.ReadString(&event->session_id));
          break;
        case ClientEvent::kFieldIp:
          if (type != TType::kString) return Status::Corruption("bad ip");
          UNILOG_RETURN_NOT_OK(r.ReadString(&event->ip));
          break;
        case ClientEvent::kFieldTimestamp:
          if (type != TType::kI64) {
            return Status::Corruption("bad timestamp");
          }
          UNILOG_RETURN_NOT_OK(r.ReadI64(&event->timestamp));
          break;
        case ClientEvent::kFieldEventDetails: {
          if (type != TType::kMap) return Status::Corruption("bad details");
          TType kt, vt;
          uint32_t count;
          UNILOG_RETURN_NOT_OK(r.ReadMapHeader(&kt, &vt, &count));
          if (count > 0 && (kt != TType::kString || vt != TType::kString)) {
            return Status::Corruption("details must be map<string,string>");
          }
          // A repeated map replaces the earlier one. Entries are appended
          // as they parse, so a hostile count costs no more than the bytes
          // behind it.
          details->resize(details_begin);
          for (uint32_t i = 0; i < count; ++i) {
            std::string_view k, v;
            UNILOG_RETURN_NOT_OK(r.ReadString(&k));
            UNILOG_RETURN_NOT_OK(r.ReadString(&v));
            details->emplace_back(k, v);
          }
          break;
        }
        default:
          // Unknown field from a newer producer: skip (schema evolution).
          UNILOG_RETURN_NOT_OK(r.SkipValue(type, /*from_field_header=*/true));
      }
    }
    if (!r.AtEnd()) return Status::Corruption("trailing bytes");
    return Status::OK();
  }();
  if (!st.ok()) {
    details->resize(details_begin);
    return st;
  }
  event->details_end = details->size();
  return Status::OK();
}

Result<ClientEvent> ClientEvent::Deserialize(std::string_view data) {
  // Per-thread details arena: the parse reuses its capacity.
  thread_local std::vector<DetailView> details;
  details.clear();
  ClientEventView view;
  UNILOG_RETURN_NOT_OK(ReadClientEventBody(data, &view, &details));
  return Materialize(view, view.details(details));
}

ClientEvent ClientEvent::Materialize(const ClientEventView& view,
                                     std::span<const DetailView> details) {
  ClientEvent event;
  event.initiator = view.initiator;
  event.event_name.assign(view.event_name);
  event.user_id = view.user_id;
  event.session_id.assign(view.session_id);
  event.ip.assign(view.ip);
  event.timestamp = view.timestamp;
  event.details.reserve(details.size());
  for (const auto& [k, v] : details) event.details.emplace_back(k, v);
  return event;
}

const std::string* ClientEvent::FindDetail(std::string_view key) const {
  for (const auto& [k, v] : details) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ClientEvent::operator==(const ClientEvent& other) const {
  return initiator == other.initiator && event_name == other.event_name &&
         user_id == other.user_id && session_id == other.session_id &&
         ip == other.ip && timestamp == other.timestamp &&
         details == other.details;
}

// ---------------------------------------------------------------------------
// Framed batch I/O

void ClientEventWriter::Add(const ClientEvent& event) {
  scratch_.clear();
  event.SerializeTo(&scratch_);
  PutLengthPrefixed(out_, scratch_);
  ++count_;
}

Status ClientEventReader::Next(ClientEvent* event) {
  if (pos_ >= data_.size()) return Status::NotFound("end of stream");
  Decoder dec(data_.substr(pos_));
  std::string_view record;
  UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&record));
  pos_ += dec.position();
  UNILOG_ASSIGN_OR_RETURN(*event, ClientEvent::Deserialize(record));
  return Status::OK();
}

}  // namespace unilog::events
