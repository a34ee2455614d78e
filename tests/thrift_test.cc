// Unit tests for the compact protocol: the dynamic values, writer and
// parser of the test oracle (thrift_oracle.h), production's streaming
// reader (thrift/compact_protocol.h) on oracle-written bytes, and the
// schema-evolution behaviours the paper's logging format relies on (§3).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "events/client_event.h"
#include "thrift/compact_protocol.h"
#include "thrift_oracle.h"

namespace unilog {
namespace {

using namespace thrift_oracle;  // most tests here drive the oracle

// Production's client-event reader refuses `m` with Corruption and leaves
// a non-empty details arena as it was.
void ExpectReaderRejects(std::string_view m) {
  std::vector<events::DetailView> arena = {{"kept", "entry"}};
  events::ClientEventView view;
  Status st = events::ReadClientEventBody(m, &view, &arena);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(arena, (std::vector<events::DetailView>{{"kept", "entry"}}));
}

// Production's reader skips one value of `type` from the start of `m`.
Status SkipFromStart(std::string_view m, thrift::TType type) {
  thrift::CompactReader r(m);
  return r.SkipValue(type, /*from_field_header=*/false);
}

ThriftValue MakeSampleEvent() {
  ThriftValue ev = ThriftValue::Struct();
  ev.SetField(1, ThriftValue::I32(2));  // event_initiator
  ev.SetField(2, ThriftValue::String(
                     "web:home:mentions:stream:avatar:profile_click"));
  ev.SetField(3, ThriftValue::I64(123456789));           // user_id
  ev.SetField(4, ThriftValue::String("sess-abc"));       // session_id
  ev.SetField(5, ThriftValue::String("10.20.30.40"));    // ip
  ev.SetField(6, ThriftValue::I64(1345507200000));       // timestamp
  MapData details;
  details.key_type = TType::kString;
  details.value_type = TType::kString;
  details.entries.emplace_back(ThriftValue::String("profile_id"),
                               ThriftValue::String("98765"));
  ev.SetField(7, ThriftValue::Map(std::move(details)));
  return ev;
}

// ---------------------------------------------------------------------------
// ThriftValue

TEST(ThriftValueTest, TypesAndAccessors) {
  EXPECT_EQ(ThriftValue::Bool(true).type(), TType::kBool);
  EXPECT_EQ(ThriftValue::Byte(1).type(), TType::kByte);
  EXPECT_EQ(ThriftValue::I16(1).type(), TType::kI16);
  EXPECT_EQ(ThriftValue::I32(1).type(), TType::kI32);
  EXPECT_EQ(ThriftValue::I64(1).type(), TType::kI64);
  EXPECT_EQ(ThriftValue::Double(1.5).type(), TType::kDouble);
  EXPECT_EQ(ThriftValue::String("x").type(), TType::kString);
  EXPECT_EQ(ThriftValue::Struct().type(), TType::kStruct);
  ListData set;
  set.is_set = true;
  EXPECT_EQ(ThriftValue::List(std::move(set)).type(), TType::kSet);
  EXPECT_EQ(ThriftValue::Map(MapData{}).type(), TType::kMap);
}

TEST(ThriftValueTest, AsI64WidensIntegerTypes) {
  EXPECT_EQ(ThriftValue::Byte(-5).AsI64().value(), -5);
  EXPECT_EQ(ThriftValue::I16(-300).AsI64().value(), -300);
  EXPECT_EQ(ThriftValue::I32(70000).AsI64().value(), 70000);
  EXPECT_EQ(ThriftValue::I64(1).AsI64().value(), 1);
  EXPECT_FALSE(ThriftValue::String("x").AsI64().ok());
  EXPECT_FALSE(ThriftValue::Double(1.0).AsI64().ok());
}

TEST(ThriftValueTest, FieldAccess) {
  ThriftValue s = MakeSampleEvent();
  ASSERT_NE(s.FindField(3), nullptr);
  EXPECT_EQ(s.FindField(3)->i64_value(), 123456789);
  EXPECT_EQ(s.FindField(99), nullptr);
  s.SetField(3, ThriftValue::I64(1));
  EXPECT_EQ(s.FindField(3)->i64_value(), 1);
}

TEST(ThriftValueTest, DeepEquality) {
  ThriftValue a = MakeSampleEvent();
  ThriftValue b = MakeSampleEvent();
  EXPECT_TRUE(a.Equals(b));
  b.SetField(3, ThriftValue::I64(0));
  EXPECT_FALSE(a.Equals(b));
  EXPECT_FALSE(ThriftValue::I32(1).Equals(ThriftValue::I64(1)));
}

TEST(ThriftValueTest, ToStringRendersNestedStructure) {
  ThriftValue s = ThriftValue::Struct();
  s.SetField(1, ThriftValue::String("hi"));
  s.SetField(2, ThriftValue::I32(5));
  EXPECT_EQ(s.ToString(), "{1: \"hi\", 2: 5}");
}

// ---------------------------------------------------------------------------
// Compact protocol round trips

TEST(CompactProtocolTest, PrimitiveFieldsRoundTrip) {
  ThriftValue s = ThriftValue::Struct();
  s.SetField(1, ThriftValue::Bool(true));
  s.SetField(2, ThriftValue::Bool(false));
  s.SetField(3, ThriftValue::Byte(-7));
  s.SetField(4, ThriftValue::I16(-12345));
  s.SetField(5, ThriftValue::I32(1 << 30));
  s.SetField(6, ThriftValue::I64(-(1ll << 60)));
  s.SetField(7, ThriftValue::Double(3.14159));
  s.SetField(8, ThriftValue::String("hello\0world"));

  std::string buf;
  ASSERT_TRUE(SerializeStruct(s, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(s));
}

TEST(CompactProtocolTest, SampleEventRoundTrip) {
  ThriftValue ev = MakeSampleEvent();
  std::string buf;
  ASSERT_TRUE(SerializeStruct(ev, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(ev));
}

TEST(CompactProtocolTest, NestedStructsRoundTrip) {
  ThriftValue inner = ThriftValue::Struct();
  inner.SetField(1, ThriftValue::String("inner"));
  ThriftValue mid = ThriftValue::Struct();
  mid.SetField(1, inner);
  mid.SetField(2, ThriftValue::I32(5));
  ThriftValue outer = ThriftValue::Struct();
  outer.SetField(1, mid);
  outer.SetField(15, ThriftValue::String("after"));

  std::string buf;
  ASSERT_TRUE(SerializeStruct(outer, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(outer));
}

TEST(CompactProtocolTest, ListsAndSetsRoundTrip) {
  ListData longlist;
  longlist.elem_type = TType::kI64;
  for (int i = 0; i < 100; ++i) longlist.elems.push_back(ThriftValue::I64(i));
  ListData strset;
  strset.elem_type = TType::kString;
  strset.is_set = true;
  strset.elems.push_back(ThriftValue::String("a"));
  strset.elems.push_back(ThriftValue::String("b"));
  ListData bools;
  bools.elem_type = TType::kBool;
  bools.elems.push_back(ThriftValue::Bool(true));
  bools.elems.push_back(ThriftValue::Bool(false));

  ThriftValue s = ThriftValue::Struct();
  s.SetField(1, ThriftValue::List(std::move(longlist)));
  s.SetField(2, ThriftValue::List(std::move(strset)));
  s.SetField(3, ThriftValue::List(std::move(bools)));

  std::string buf;
  ASSERT_TRUE(SerializeStruct(s, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(s));
}

TEST(CompactProtocolTest, MapsRoundTrip) {
  MapData m;
  m.key_type = TType::kString;
  m.value_type = TType::kI32;
  m.entries.emplace_back(ThriftValue::String("x"), ThriftValue::I32(1));
  m.entries.emplace_back(ThriftValue::String("y"), ThriftValue::I32(2));
  ThriftValue s = ThriftValue::Struct();
  s.SetField(1, ThriftValue::Map(std::move(m)));
  s.SetField(2, ThriftValue::Map(MapData{}));  // empty map

  std::string buf;
  ASSERT_TRUE(SerializeStruct(s, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(s));
}

TEST(CompactProtocolTest, LargeFieldIdsUseLongForm) {
  ThriftValue s = ThriftValue::Struct();
  s.SetField(1, ThriftValue::I32(1));
  s.SetField(200, ThriftValue::I32(2));   // delta > 15 → long form
  s.SetField(32000, ThriftValue::I32(3));
  std::string buf;
  ASSERT_TRUE(SerializeStruct(s, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Equals(s));
}

TEST(CompactProtocolTest, DeltaEncodingKeepsAdjacentFieldsToOneByteHeader) {
  // Two structs identical except for field ids: consecutive ids should
  // serialize smaller than widely-spaced ids.
  ThriftValue dense = ThriftValue::Struct();
  ThriftValue sparse = ThriftValue::Struct();
  for (int i = 0; i < 10; ++i) {
    dense.SetField(static_cast<int16_t>(i + 1), ThriftValue::I32(7));
    sparse.SetField(static_cast<int16_t>((i + 1) * 100), ThriftValue::I32(7));
  }
  std::string dbuf, sbuf;
  ASSERT_TRUE(SerializeStruct(dense, &dbuf).ok());
  ASSERT_TRUE(SerializeStruct(sparse, &sbuf).ok());
  EXPECT_LT(dbuf.size(), sbuf.size());
}

TEST(CompactProtocolTest, TrailingGarbageDetected) {
  std::string buf;
  ASSERT_TRUE(SerializeStruct(MakeSampleEvent(), &buf).ok());
  buf += "junk";
  EXPECT_FALSE(ParseStruct(buf).ok());
  // Production skips the struct whole and stops before the junk, which
  // the client-event reader refuses.
  thrift::CompactReader r(buf);
  ASSERT_TRUE(r.SkipValue(thrift::TType::kStruct, false).ok());
  EXPECT_FALSE(r.AtEnd());
  ExpectReaderRejects(buf);
}

TEST(CompactProtocolTest, TruncatedStructDetected) {
  std::string buf;
  ASSERT_TRUE(SerializeStruct(MakeSampleEvent(), &buf).ok());
  for (size_t cut : {buf.size() - 1, buf.size() / 2, size_t{1}}) {
    const std::string_view m = std::string_view(buf).substr(0, cut);
    EXPECT_FALSE(ParseStruct(m).ok()) << "cut=" << cut;
    EXPECT_TRUE(SkipFromStart(m, thrift::TType::kStruct).IsCorruption())
        << "cut=" << cut;
    ExpectReaderRejects(m);
  }
}

// An unknown field holding `levels` nested struct headers, inside the
// top-level struct: unbounded recursion over ~100 KB of them would
// overflow the stack.
std::string NestedStructs(size_t levels) {
  std::string m("\x0c\x28", 2);  // field 20, struct
  m.append(levels, '\x1c');        // field +1, struct
  return m;
}

TEST(CompactProtocolTest, DeepNestingIsCorruptionNotStackOverflow) {
  for (size_t levels : {size_t{64}, size_t{100000}}) {
    const std::string m = NestedStructs(levels);
    thrift::CompactReader r(m);
    ASSERT_TRUE(r.BeginStruct().ok());
    int16_t id;
    thrift::TType type;
    bool stop = false, b = false;
    ASSERT_TRUE(r.ReadFieldHeader(&id, &type, &stop, &b).ok());
    Status st = r.SkipValue(type, /*from_field_header=*/true);
    EXPECT_TRUE(st.IsCorruption()) << levels << ": " << st.ToString();
    EXPECT_TRUE(ParseStruct(m).status().IsCorruption()) << levels;
  }
  // Nested lists recurse without opening structs; they are bounded too.
  std::string lists(1, '\x19');   // field 1: list
  lists.append(100000, '\x19');  // each a one-element list of lists
  EXPECT_TRUE(ParseStruct(lists).status().IsCorruption());
  thrift::CompactReader r(lists);
  ASSERT_TRUE(r.BeginStruct().ok());
  int16_t id;
  thrift::TType type;
  bool stop = false, b = false;
  ASSERT_TRUE(r.ReadFieldHeader(&id, &type, &stop, &b).ok());
  EXPECT_TRUE(r.SkipValue(type, true).IsCorruption());
}

TEST(CompactProtocolTest, LegitimatelyNestedStructsParseAndSkip) {
  // Ten levels of nested structs, each with a leaf field, then a trailing
  // known field: skipped by the streaming reader, kept by the parser.
  std::string m;
  Writer w(&m);
  w.BeginStruct();
  w.WriteStructFieldHeader(20);
  for (int depth = 0; depth < 10; ++depth) {
    w.BeginStruct();
    w.WriteI32Field(1, depth);
    w.WriteStructFieldHeader(2);
  }
  w.BeginStruct();
  w.EndStruct();
  for (int depth = 0; depth < 10; ++depth) w.EndStruct();
  w.WriteStringField(21, "after");
  w.EndStruct();

  auto parsed = ParseStruct(m);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->FindField(21), nullptr);
  EXPECT_EQ(parsed->FindField(21)->string_value(), "after");

  thrift::CompactReader r(m);
  ASSERT_TRUE(r.BeginStruct().ok());
  int16_t id;
  thrift::TType type;
  bool stop = false, b = false;
  ASSERT_TRUE(r.ReadFieldHeader(&id, &type, &stop, &b).ok());
  ASSERT_EQ(id, 20);
  ASSERT_TRUE(r.SkipValue(type, true).ok());
  ASSERT_TRUE(r.ReadFieldHeader(&id, &type, &stop, &b).ok());
  EXPECT_EQ(id, 21);  // the enclosing struct's field ids resumed correctly
  std::string_view after;
  ASSERT_TRUE(r.ReadString(&after).ok());
  EXPECT_EQ(after, "after");
  ASSERT_TRUE(r.ReadFieldHeader(&id, &type, &stop, &b).ok());
  EXPECT_TRUE(stop);
  EXPECT_TRUE(r.AtEnd());
}

// A list claiming 2^32 - 1 elements reserves no more than its bytes.
TEST(CompactProtocolTest, HugeClaimedListCountIsCorruption) {
  const std::string m("\x19\xf5\xff\xff\xff\xff\x0f", 7);
  EXPECT_TRUE(ParseStruct(m).status().IsCorruption());
  EXPECT_TRUE(SkipFromStart(m, thrift::TType::kStruct).IsCorruption());
  ExpectReaderRejects(m);  // field 1 must be the i32 initiator
  // The same list as unknown field 20 (long-form id) reaches SkipValue
  // inside the client-event reader.
  const std::string unknown("\x09\x28\xf5\xff\xff\xff\xff\x0f", 8);
  EXPECT_TRUE(ParseStruct(unknown).status().IsCorruption());
  ExpectReaderRejects(unknown);
}

TEST(CompactProtocolTest, SerializeRejectsNonStruct) {
  std::string buf;
  EXPECT_TRUE(SerializeStruct(ThriftValue::I32(1), &buf).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Schema evolution: old readers skip fields added by new writers.

TEST(SchemaEvolutionTest, UnknownFieldsSkippedByStreamingReader) {
  // "New producer" writes a struct with extra fields of every type.
  ThriftValue v2 = MakeSampleEvent();
  v2.SetField(8, ThriftValue::String("added-in-v2"));
  v2.SetField(9, ThriftValue::Double(2.5));
  ThriftValue nested = ThriftValue::Struct();
  nested.SetField(1, ThriftValue::I64(1));
  v2.SetField(10, nested);
  ListData extra_list;
  extra_list.elem_type = TType::kI32;
  extra_list.elems.push_back(ThriftValue::I32(1));
  v2.SetField(11, ThriftValue::List(std::move(extra_list)));
  v2.SetField(12, ThriftValue::Bool(true));

  std::string buf;
  ASSERT_TRUE(SerializeStruct(v2, &buf).ok());

  // "Old consumer" only understands fields 2 (event_name) and 3 (user_id);
  // it must read them and skip everything else without error.
  thrift::CompactReader r(buf);
  ASSERT_TRUE(r.BeginStruct().ok());
  std::string_view event_name;
  int64_t user_id = 0;
  while (true) {
    int16_t id;
    thrift::TType type;
    bool stop = false, bval = false;
    ASSERT_TRUE(r.ReadFieldHeader(&id, &type, &stop, &bval).ok());
    if (stop) break;
    if (id == 2 && type == thrift::TType::kString) {
      ASSERT_TRUE(r.ReadString(&event_name).ok());
    } else if (id == 3 && type == thrift::TType::kI64) {
      ASSERT_TRUE(r.ReadI64(&user_id).ok());
    } else {
      ASSERT_TRUE(r.SkipValue(type, /*from_field_header=*/true).ok())
          << "field " << id;
    }
  }
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(event_name, "web:home:mentions:stream:avatar:profile_click");
  EXPECT_EQ(user_id, 123456789);
}

TEST(SchemaEvolutionTest, DynamicParserPreservesUnknownFields) {
  ThriftValue v2 = MakeSampleEvent();
  v2.SetField(99, ThriftValue::String("forward-compat"));
  std::string buf;
  ASSERT_TRUE(SerializeStruct(v2, &buf).ok());
  auto parsed = ParseStruct(buf);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->FindField(99), nullptr);
  EXPECT_EQ(parsed->FindField(99)->string_value(), "forward-compat");
}

}  // namespace
}  // namespace unilog
