#ifndef UNILOG_EVENTS_CLIENT_EVENT_H_
#define UNILOG_EVENTS_CLIENT_EVENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"

namespace unilog::events {

/// Who triggered the event (Table 2: {client, server} x {user, app}).
/// A user's timeline polling for new tweets is a client/app event; a click
/// is client/user; a server-rendered impression is server/app; etc.
enum class EventInitiator : int32_t {
  kClientUser = 0,
  kClientApp = 1,
  kServerUser = 2,
  kServerApp = 3,
};

const char* EventInitiatorName(EventInitiator e);

/// One event_details entry, as views into a parsed message.
using DetailView = std::pair<std::string_view, std::string_view>;

/// A client event parsed in place: the strings are views into the message
/// bytes, and the details are the entries [details_begin, details_end) of
/// a caller-owned arena (many events may share one arena). Valid as long
/// as the message bytes and the arena entries are.
struct ClientEventView {
  EventInitiator initiator = EventInitiator::kClientUser;
  std::string_view event_name;
  int64_t user_id = 0;
  std::string_view session_id;
  std::string_view ip;
  TimeMs timestamp = 0;
  size_t details_begin = 0;
  size_t details_end = 0;

  std::span<const DetailView> details(
      const std::vector<DetailView>& arena) const {
    return std::span<const DetailView>(arena).subspan(
        details_begin, details_end - details_begin);
  }
};

/// The one client-event parser: parses the compact-Thrift message `data`
/// into *event, appending its details to *details one entry at a time
/// (never sized from a claimed count). A repeated field keeps its last
/// value, a repeated details map replaces the earlier one, and unknown
/// fields are skipped (schema evolution). Corruption on malformed input
/// or trailing bytes; on failure *details is left as it was.
Status ReadClientEventBody(std::string_view data, ClientEventView* event,
                           std::vector<DetailView>* details);

/// A client event: the unified log message format (Table 2). Every Twitter
/// client — web, iPhone, Android, iPad — logs the same structure with the
/// same field semantics, which is what makes session reconstruction a
/// simple group-by (§3.2).
///
/// Wire representation: unilog compact Thrift, with the field ids below.
/// The event_details field holds event-specific key-value pairs that teams
/// extend without central coordination.
struct ClientEvent {
  /// Thrift field ids (stable across schema evolution).
  static constexpr int16_t kFieldInitiator = 1;
  static constexpr int16_t kFieldEventName = 2;
  static constexpr int16_t kFieldUserId = 3;
  static constexpr int16_t kFieldSessionId = 4;
  static constexpr int16_t kFieldIp = 5;
  static constexpr int16_t kFieldTimestamp = 6;
  static constexpr int16_t kFieldEventDetails = 7;

  EventInitiator initiator = EventInitiator::kClientUser;
  std::string event_name;
  int64_t user_id = 0;
  std::string session_id;
  std::string ip;
  TimeMs timestamp = 0;
  std::vector<std::pair<std::string, std::string>> details;

  /// Serializes with the compact protocol. This writer and
  /// ReadClientEventBody play the role of Elephant Bird's generated Thrift
  /// code: the one client-event codec, with no schema-less value between
  /// the struct and its bytes.
  void SerializeTo(std::string* out) const;
  std::string Serialize() const;

  /// Deserializes one event: ReadClientEventBody, then Materialize.
  static Result<ClientEvent> Deserialize(std::string_view data);

  /// Copies a parsed view (and its details from `details`) into an event.
  static ClientEvent Materialize(const ClientEventView& view,
                                 std::span<const DetailView> details);

  /// Looks up a details key; nullptr when absent.
  const std::string* FindDetail(std::string_view key) const;

  bool operator==(const ClientEvent& other) const;
};

/// A framed batch of serialized client events: each record is a varint
/// length followed by the compact-Thrift bytes. This is the on-disk layout
/// of client event log files in the (simulated) warehouse.
class ClientEventWriter {
 public:
  explicit ClientEventWriter(std::string* out) : out_(out) {}
  void Add(const ClientEvent& event);
  size_t count() const { return count_; }

 private:
  std::string* out_;
  // Per-record serialization buffer, reused across Add calls so batched
  // writes stop allocating once its capacity warms up.
  std::string scratch_;
  size_t count_ = 0;
};

/// Streaming reader over a framed batch.
class ClientEventReader {
 public:
  explicit ClientEventReader(std::string_view data) : data_(data) {}

  /// Reads the next event. Returns NotFound at clean end-of-stream,
  /// Corruption on malformed framing.
  Status Next(ClientEvent* event);

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace unilog::events

#endif  // UNILOG_EVENTS_CLIENT_EVENT_H_
