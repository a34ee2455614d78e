#ifndef UNILOG_THRIFT_COMPACT_PROTOCOL_H_
#define UNILOG_THRIFT_COMPACT_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"

namespace unilog::thrift {

/// The unilog compact wire protocol, a from-scratch implementation of the
/// Thrift TCompactProtocol design:
///  - field headers delta-encode field ids into a (delta << 4 | type)
///    nibble pair, with a long form for deltas > 15;
///  - booleans are folded into the field-header type nibble;
///  - integers are zigzag varints; doubles are fixed 8-byte LE;
///  - strings are varint-length-prefixed bytes;
///  - lists/sets pack small sizes into the header nibble;
///  - structs terminate with a STOP byte.
///
/// The wire format is self-describing (every value carries its type), which
/// is what makes unknown-field skipping — and therefore schema evolution —
/// possible: new fields added by producers are silently skipped by old
/// consumers (§3 of the paper relies on this property of Thrift).
///
/// The writer and reader carry what the typed client-event codec
/// (events/client_event.h) calls: i32, i64 and string fields and a
/// map<string,string>. SkipValue skips a value of every type.

/// Thrift data types (the Apache Thrift type system minus unions).
enum class TType : uint8_t {
  kBool = 1,
  kByte = 2,
  kI16 = 3,
  kI32 = 4,
  kI64 = 5,
  kDouble = 6,
  kString = 7,
  kStruct = 8,
  kList = 9,
  kSet = 10,
  kMap = 11,
};

/// Compact-protocol wire type nibbles.
enum class CType : uint8_t {
  kStop = 0,
  kBoolTrue = 1,
  kBoolFalse = 2,
  kByte = 3,
  kI16 = 4,
  kI32 = 5,
  kI64 = 6,
  kDouble = 7,
  kBinary = 8,
  kList = 9,
  kSet = 10,
  kMap = 11,
  kStruct = 12,
};

/// Maps a logical TType to its compact wire nibble (bools map to kBoolTrue;
/// the writer adjusts for the actual value).
CType ToCType(TType t);

/// Maps a wire nibble back to the logical type. kBoolTrue/kBoolFalse both
/// map to kBool. Returns Corruption for kStop or unknown nibbles.
Result<TType> FromCType(uint8_t nibble);

/// Streaming writer. Usage for a struct:
///   CompactWriter w(&buf);
///   w.BeginStruct();
///   w.WriteI64Field(3, user_id);
///   ...
///   w.EndStruct();
class CompactWriter {
 public:
  explicit CompactWriter(std::string* out) : out_(out) {}

  /// Struct nesting. BeginStruct pushes a fresh last-field-id context.
  void BeginStruct();
  void EndStruct();

  /// Field writers (id must be positive and ascending within a struct for
  /// best compression; any positive id is accepted).
  void WriteI32Field(int16_t id, int32_t v);
  void WriteI64Field(int16_t id, int64_t v);
  void WriteStringField(int16_t id, std::string_view v);
  /// Writes the header for a map field; follow with `count` key, value
  /// pairs of WriteString.
  void WriteMapFieldHeader(int16_t id, TType key, TType value,
                           uint32_t count);

  /// A bare (headerless) string, for map entries.
  void WriteString(std::string_view v);

 private:
  void WriteFieldHeader(int16_t id, CType type);

  std::string* out_;
  // Stack of last-written field ids, one per open struct. Fixed small depth
  // is plenty for log messages; grows if exceeded.
  std::vector<int16_t> last_field_;
};

/// Streaming reader, mirror of CompactWriter.
///
/// Nesting is bounded: at most kMaxNestingDepth structs may be open at
/// once, and SkipValue descends at most kMaxNestingDepth containers or
/// structs deep. Past either bound the reader returns Corruption instead
/// of recursing, so a small hostile message cannot exhaust the stack.
/// The field-id stack lives inline, so a reader allocates nothing.
class CompactReader {
 public:
  static constexpr int kMaxNestingDepth = 64;

  explicit CompactReader(std::string_view data) : dec_(data) {}

  /// Opens a struct context. Corruption past kMaxNestingDepth open
  /// structs.
  Status BeginStruct();
  /// Reads the next field header in the current struct. Sets *stop=true at
  /// the STOP byte (and pops the struct context). For bool fields the value
  /// is carried in the header: *bool_value receives it.
  Status ReadFieldHeader(int16_t* id, TType* type, bool* stop,
                         bool* bool_value);

  Status ReadI32(int32_t* v);
  Status ReadI64(int64_t* v);
  /// Reads a string as a view into the reader's input (no copy).
  Status ReadString(std::string_view* v);
  Status ReadListHeader(TType* elem, uint32_t* count);
  Status ReadMapHeader(TType* key, TType* value, uint32_t* count);

  /// Skips a value of the given type (recursively for containers/structs,
  /// at most kMaxNestingDepth levels). `from_field_header` is true for
  /// field values, whose bools are folded into the header (bare bool
  /// elements occupy one byte).
  Status SkipValue(TType type, bool from_field_header);

  bool AtEnd() const { return dec_.AtEnd(); }

 private:
  Status SkipValueAt(TType type, bool from_field_header, int depth);

  Decoder dec_;
  // Last-read field id per open struct; depth_ entries are live.
  int16_t last_field_[kMaxNestingDepth];
  int depth_ = 0;
};

}  // namespace unilog::thrift

#endif  // UNILOG_THRIFT_COMPACT_PROTOCOL_H_
