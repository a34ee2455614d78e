// Unit tests for the client events core: six-level names (Table 1),
// wildcard patterns, the ClientEvent struct (Table 2), framed batches,
// rollup schemas (§3.2), and the legacy application-specific formats
// (§3.1 baseline).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "events/client_event.h"
#include "events/event_name.h"
#include "thrift/compact_protocol.h"
#include "events/legacy.h"
#include "events/rollup.h"
#include "scribe/message.h"
#include "thrift_oracle.h"

namespace unilog::events {
namespace {

// The paper's running example.
constexpr const char* kExample = "web:home:mentions:stream:avatar:profile_click";

// ---------------------------------------------------------------------------
// EventName

TEST(EventNameTest, ParsePaperExample) {
  auto name = EventName::Parse(kExample);
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(name->client(), "web");
  EXPECT_EQ(name->page(), "home");
  EXPECT_EQ(name->section(), "mentions");
  EXPECT_EQ(name->part_component(), "stream");
  EXPECT_EQ(name->element(), "avatar");
  EXPECT_EQ(name->action(), "profile_click");
  EXPECT_EQ(name->ToString(), kExample);
}

TEST(EventNameTest, ComponentAccessByEnum) {
  auto name = EventName::Parse(kExample);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->component(NameComponent::kClient), "web");
  EXPECT_EQ(name->component(NameComponent::kAction), "profile_click");
}

TEST(EventNameTest, WrongComponentCountRejected) {
  EXPECT_TRUE(EventName::Parse("web:home").status().IsInvalidArgument());
  EXPECT_TRUE(EventName::Parse("a:b:c:d:e:f:g").status().IsInvalidArgument());
  EXPECT_TRUE(EventName::Parse("").status().IsInvalidArgument());
}

TEST(EventNameTest, CamelCaseRejected) {
  // The paper imposed "consistent, lowercased naming" to combat the
  // dreaded camel_Snake.
  EXPECT_TRUE(EventName::Parse("web:home:Mentions:stream:avatar:click")
                  .status().IsInvalidArgument());
  EXPECT_TRUE(EventName::Parse("web:home:mentions:stream:avatar:profileClick")
                  .status().IsInvalidArgument());
  EXPECT_TRUE(EventName::Parse("Web:home:mentions:stream:avatar:click")
                  .status().IsInvalidArgument());
}

TEST(EventNameTest, EmptyMiddleComponentsAllowed) {
  // A page without multiple sections has an empty section component.
  auto name = EventName::Parse("iphone:profile::::impression");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(name->section(), "");
  EXPECT_EQ(name->element(), "");
}

TEST(EventNameTest, EmptyClientOrActionRejected) {
  EXPECT_TRUE(EventName::Parse(":home:mentions:stream:avatar:click")
                  .status().IsInvalidArgument());
  EXPECT_TRUE(EventName::Parse("web:home:mentions:stream:avatar:")
                  .status().IsInvalidArgument());
}

TEST(EventNameTest, MakeValidatesComponents) {
  EXPECT_TRUE(EventName::Make("web", "home", "", "", "", "click").ok());
  EXPECT_FALSE(EventName::Make("web", "Home", "", "", "", "click").ok());
  EXPECT_FALSE(EventName::Make("", "home", "", "", "", "click").ok());
}

TEST(EventNameTest, PrefixForCatalogBrowsing) {
  auto name = EventName::Parse(kExample);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->Prefix(1), "web");
  EXPECT_EQ(name->Prefix(2), "web:home");
  EXPECT_EQ(name->Prefix(3), "web:home:mentions");
  EXPECT_EQ(name->Prefix(6), kExample);
  EXPECT_EQ(name->Prefix(0), "");
  EXPECT_EQ(name->Prefix(99), kExample);
}

TEST(EventNameTest, Ordering) {
  auto a = EventName::Parse("android:home:::tweet:click");
  auto b = EventName::Parse("web:home:::tweet:click");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a < *b);
  EXPECT_TRUE(*a == *a);
}

// ---------------------------------------------------------------------------
// EventPattern: the paper's slice-and-dice queries.

TEST(EventPatternTest, PrefixWildcard) {
  // "all actions on the user's home mentions timeline on twitter.com".
  EventPattern p("web:home:mentions:*");
  EXPECT_TRUE(p.Matches(std::string_view(kExample)));
  EXPECT_TRUE(p.Matches("web:home:mentions:stream:tweet:impression"));
  EXPECT_FALSE(p.Matches("web:home:retweets:stream:tweet:impression"));
  EXPECT_FALSE(p.Matches("iphone:home:mentions:stream:tweet:impression"));
}

TEST(EventPatternTest, SuffixWildcard) {
  // "track profile clicks across all clients with *:profile_click".
  EventPattern p("*:profile_click");
  EXPECT_TRUE(p.Matches(std::string_view(kExample)));
  EXPECT_TRUE(p.Matches("iphone:profile::::profile_click"));
  EXPECT_FALSE(p.Matches("web:home:mentions:stream:avatar:click"));
}

TEST(EventPatternTest, ComponentWildcards) {
  EventPattern p("web:*:*:*:*:impression");
  EXPECT_TRUE(p.Matches("web:home:mentions:stream:tweet:impression"));
  EXPECT_TRUE(p.Matches("web:search:::results:impression"));
  EXPECT_FALSE(p.Matches("android:home:mentions:stream:tweet:impression"));
}

TEST(EventPatternTest, DefaultMatchesEverything) {
  EventPattern p;
  EXPECT_TRUE(p.Matches(std::string_view(kExample)));
  EXPECT_TRUE(p.Matches("x"));
}

TEST(EventPatternTest, MatchesEventNameObject) {
  auto name = EventName::Parse(kExample);
  ASSERT_TRUE(name.ok());
  EXPECT_TRUE(EventPattern("web:*").Matches(*name));
  EXPECT_FALSE(EventPattern("android:*").Matches(*name));
}

// ---------------------------------------------------------------------------
// ClientEvent

ClientEvent SampleEvent() {
  ClientEvent ev;
  ev.initiator = EventInitiator::kClientUser;
  ev.event_name = kExample;
  ev.user_id = 123456789;
  ev.session_id = "cookie-abc123";
  ev.ip = "10.20.30.40";
  ev.timestamp = 1345507200000;
  ev.details = {{"profile_id", "98765"}, {"rank", "3"}};
  return ev;
}

TEST(ClientEventTest, SerializeDeserializeRoundTrip) {
  ClientEvent ev = SampleEvent();
  std::string buf = ev.Serialize();
  auto parsed = ClientEvent::Deserialize(buf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, ev);
}

TEST(ClientEventTest, EmptyDetailsOmitted) {
  ClientEvent ev = SampleEvent();
  ev.details.clear();
  std::string with_details = SampleEvent().Serialize();
  std::string without = ev.Serialize();
  EXPECT_LT(without.size(), with_details.size());
  auto parsed = ClientEvent::Deserialize(without);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->details.empty());
}

TEST(ClientEventTest, DeserializeSkipsUnknownFields) {
  // Simulate a newer producer adding field 20: the oracle parses the
  // event, gains the field and writes it back.
  auto v = thrift_oracle::ParseStruct(SampleEvent().Serialize());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  v->SetField(20, thrift_oracle::ThriftValue::String("new-feature-flag"));
  std::string buf;
  ASSERT_TRUE(thrift_oracle::SerializeStruct(*v, &buf).ok());
  auto parsed = ClientEvent::Deserialize(buf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, SampleEvent());
}

TEST(ClientEventTest, CorruptionDetected) {
  std::string buf = SampleEvent().Serialize();
  EXPECT_FALSE(ClientEvent::Deserialize(buf.substr(0, buf.size() / 2)).ok());
  EXPECT_FALSE(ClientEvent::Deserialize(buf + "x").ok());
}

// Field 7 as a map<string,string> claiming 2^32 - 1 entries. Sizing the
// details from the claimed count would throw std::bad_alloc; entries grow
// as they parse, so the missing bytes are Corruption.
TEST(ClientEventTest, HugeDetailsCountIsCorruptionNotAbort) {
  const std::string m("\x7b\xff\xff\xff\xff\x0f\x88", 7);
  auto parsed = ClientEvent::Deserialize(m);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

TEST(ClientEventTest, ViewParserKeepsLastFieldAndLastDetailsMap) {
  std::string m;
  thrift::CompactWriter w(&m);
  w.BeginStruct();
  w.WriteStringField(ClientEvent::kFieldEventName, "first");
  w.WriteMapFieldHeader(ClientEvent::kFieldEventDetails, thrift::TType::kString,
                        thrift::TType::kString, 1);
  w.WriteString("a");
  w.WriteString("1");
  w.WriteStringField(ClientEvent::kFieldEventName, "second");
  w.WriteMapFieldHeader(ClientEvent::kFieldEventDetails, thrift::TType::kString,
                        thrift::TType::kString, 2);
  w.WriteString("b");
  w.WriteString("2");
  w.WriteString("c");
  w.WriteString("3");
  w.WriteStringField(30, "unknown");
  w.EndStruct();

  // The arena is shared: a second event appends after the first's range.
  std::vector<DetailView> arena;
  ClientEventView first, second;
  ASSERT_TRUE(ReadClientEventBody(m, &first, &arena).ok());
  ASSERT_TRUE(ReadClientEventBody(m, &second, &arena).ok());
  EXPECT_EQ(first.event_name, "second");
  EXPECT_EQ(first.details_begin, 0u);
  EXPECT_EQ(first.details_end, 2u);
  EXPECT_EQ(second.details_begin, 2u);
  EXPECT_EQ(second.details_end, 4u);
  ClientEvent ev = ClientEvent::Materialize(second, second.details(arena));
  EXPECT_EQ(ev.event_name, "second");
  EXPECT_EQ(ev.details, (std::vector<std::pair<std::string, std::string>>{
                            {"b", "2"}, {"c", "3"}}));
  // The views point into the message, not into copies.
  EXPECT_GE(first.event_name.data(), m.data());
  EXPECT_LT(first.event_name.data(), m.data() + m.size());

  // A failed parse leaves the arena as it was.
  EXPECT_FALSE(ReadClientEventBody(m.substr(0, m.size() - 3), &first, &arena)
                   .ok());
  EXPECT_EQ(arena.size(), 4u);
}

TEST(ClientEventTest, FindDetail) {
  ClientEvent ev = SampleEvent();
  ASSERT_NE(ev.FindDetail("rank"), nullptr);
  EXPECT_EQ(*ev.FindDetail("rank"), "3");
  EXPECT_EQ(ev.FindDetail("nope"), nullptr);
}

TEST(ClientEventTest, InitiatorNames) {
  EXPECT_STREQ(EventInitiatorName(EventInitiator::kClientUser), "client_user");
  EXPECT_STREQ(EventInitiatorName(EventInitiator::kClientApp), "client_app");
  EXPECT_STREQ(EventInitiatorName(EventInitiator::kServerUser), "server_user");
  EXPECT_STREQ(EventInitiatorName(EventInitiator::kServerApp), "server_app");
}

// ---------------------------------------------------------------------------
// Framed batches

TEST(ClientEventBatchTest, WriterReaderRoundTrip) {
  std::string buf;
  ClientEventWriter writer(&buf);
  std::vector<ClientEvent> events;
  for (int i = 0; i < 10; ++i) {
    ClientEvent ev = SampleEvent();
    ev.user_id = i;
    ev.timestamp += i * 1000;
    events.push_back(ev);
    writer.Add(ev);
  }
  EXPECT_EQ(writer.count(), 10u);

  ClientEventReader reader(buf);
  ClientEvent ev;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader.Next(&ev).ok()) << i;
    EXPECT_EQ(ev, events[i]);
  }
  EXPECT_TRUE(reader.Next(&ev).IsNotFound());
}

TEST(ClientEventBatchTest, NameOnlyProjection) {
  std::string buf;
  ClientEventWriter writer(&buf);
  ClientEvent a = SampleEvent();
  ClientEvent b = SampleEvent();
  b.event_name = "iphone:home:::tweet:favorite";
  writer.Add(a);
  writer.Add(b);

  // Names project from in-place views over the framed batch.
  std::vector<std::string_view> records;
  ASSERT_TRUE(scribe::UnframeMessageViews(buf, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  ClientEventView view;
  std::vector<DetailView> details;
  ASSERT_TRUE(ReadClientEventBody(records[0], &view, &details).ok());
  EXPECT_EQ(view.event_name, kExample);
  ASSERT_TRUE(ReadClientEventBody(records[1], &view, &details).ok());
  EXPECT_EQ(view.event_name, "iphone:home:::tweet:favorite");
}

TEST(ClientEventBatchTest, CorruptFramingDetected) {
  std::string buf;
  ClientEventWriter writer(&buf);
  writer.Add(SampleEvent());
  ClientEventReader reader(std::string_view(buf).substr(0, buf.size() - 2));
  ClientEvent ev;
  EXPECT_TRUE(reader.Next(&ev).IsCorruption());
}

// ---------------------------------------------------------------------------
// Rollups

TEST(RollupTest, KeyForEachLevel) {
  auto name = EventName::Parse(kExample);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(RollupKeyFor(*name, RollupLevel::kFull), kExample);
  EXPECT_EQ(RollupKeyFor(*name, RollupLevel::kNoElement),
            "web:home:mentions:stream:*:profile_click");
  EXPECT_EQ(RollupKeyFor(*name, RollupLevel::kNoComponent),
            "web:home:mentions:*:*:profile_click");
  EXPECT_EQ(RollupKeyFor(*name, RollupLevel::kNoSection),
            "web:home:*:*:*:profile_click");
  EXPECT_EQ(RollupKeyFor(*name, RollupLevel::kNoPage),
            "web:*:*:*:*:profile_click");
}

TEST(RollupTest, AggregatesAcrossLevels) {
  RollupAggregator agg;
  auto click = EventName::Parse(kExample);
  auto impression =
      EventName::Parse("web:home:mentions:stream:tweet:impression");
  auto iphone_click =
      EventName::Parse("iphone:home:mentions:stream:avatar:profile_click");
  ASSERT_TRUE(click.ok());
  ASSERT_TRUE(impression.ok());
  ASSERT_TRUE(iphone_click.ok());

  agg.Add(*click, "us", true);
  agg.Add(*click, "uk", false);
  agg.Add(*impression, "us", true);
  agg.Add(*iphone_click, "us", true);

  // Full level: three distinct keys.
  EXPECT_EQ(agg.Level(RollupLevel::kFull).size(), 3u);
  const RollupCell& full =
      agg.Level(RollupLevel::kFull).at(kExample);
  EXPECT_EQ(full.total, 2u);
  EXPECT_EQ(full.logged_in, 1u);
  EXPECT_EQ(full.logged_out, 1u);
  EXPECT_EQ(full.by_country.at("us"), 1u);
  EXPECT_EQ(full.by_country.at("uk"), 1u);

  // Client-level: web clicks and iphone clicks are separate; impressions
  // separate.
  const auto& top = agg.Level(RollupLevel::kNoPage);
  EXPECT_EQ(top.at("web:*:*:*:*:profile_click").total, 2u);
  EXPECT_EQ(top.at("iphone:*:*:*:*:profile_click").total, 1u);
  EXPECT_EQ(top.at("web:*:*:*:*:impression").total, 1u);
}

TEST(RollupTest, TopRowsSortedByCount) {
  RollupAggregator agg;
  auto a = EventName::Parse("web:home:::tweet:impression");
  auto b = EventName::Parse("web:home:::tweet:click");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  agg.Add(*a, "us", true, 10);
  agg.Add(*b, "us", true, 3);
  auto rows = agg.TopRows(RollupLevel::kFull, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "web:home:::tweet:impression 10 10 0");
  EXPECT_EQ(rows[1], "web:home:::tweet:click 3 3 0");
  EXPECT_EQ(agg.TopRows(RollupLevel::kFull, 1).size(), 1u);
}

TEST(RollupTest, TotalKeysCountsAllLevels) {
  RollupAggregator agg;
  auto a = EventName::Parse(kExample);
  ASSERT_TRUE(a.ok());
  agg.Add(*a, "us", true);
  // One event appears once in each of the five levels.
  EXPECT_EQ(agg.TotalKeys(), 5u);
}

// ---------------------------------------------------------------------------
// Legacy formats (the application-specific baseline)

TEST(LegacyTest, JsonFormatRoundTrip) {
  ClientEvent ev = SampleEvent();
  std::string line = LegacyJsonFormat::Format(ev);
  auto rec = LegacyJsonFormat::Parse(line);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->user_id, ev.user_id);
  EXPECT_EQ(rec->timestamp, ev.timestamp);  // ms precision preserved
  EXPECT_EQ(rec->action, "profile_click");
  EXPECT_EQ(rec->source, LegacyJsonFormat::kCategory);
}

TEST(LegacyTest, DeeplyNestedJsonLineIsCorruption) {
  // Legacy lines come from outside the program; a hostile one nests
  // arrays far past the parser's depth bound inside a valid envelope.
  std::string line = "{\"eventData\":" + std::string(100000, '[');
  auto rec = LegacyJsonFormat::Parse(line);
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status().ToString();
}

TEST(LegacyTest, DelimitedFormatLosesSubSecondPrecision) {
  ClientEvent ev = SampleEvent();
  ev.timestamp = 1345507200789;  // with sub-second part
  std::string line = LegacyDelimitedFormat::Format(ev);
  auto rec = LegacyDelimitedFormat::Parse(line);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->user_id, ev.user_id);
  EXPECT_EQ(rec->timestamp, 1345507200000);  // truncated to seconds
  EXPECT_EQ(rec->action, "profile_click");
}

TEST(LegacyTest, DelimitedEscapesEmbeddedTabs) {
  ClientEvent ev = SampleEvent();
  ev.details = {{"query", "tab\there"}};
  std::string line = LegacyDelimitedFormat::Format(ev);
  // Still exactly 5 columns.
  auto rec = LegacyDelimitedFormat::Parse(line);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
}

TEST(LegacyTest, NaturalFormatMinuteResolution) {
  ClientEvent ev = SampleEvent();
  ev.timestamp = MakeDate(2012, 8, 21) + 13 * kMillisPerHour +
                 45 * kMillisPerMinute + 33 * kMillisPerSecond;
  ev.details = {{"query", "vldb 2012"}};
  std::string line = LegacyNaturalFormat::Format(ev);
  EXPECT_NE(line.find("user 123456789 performed profile_click at"),
            std::string::npos);
  EXPECT_NE(line.find("[vldb 2012]"), std::string::npos);
  auto rec = LegacyNaturalFormat::Parse(line);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->user_id, ev.user_id);
  // Seconds truncated: minute resolution only.
  EXPECT_EQ(rec->timestamp,
            MakeDate(2012, 8, 21) + 13 * kMillisPerHour + 45 * kMillisPerMinute);
  EXPECT_EQ(rec->action, "profile_click");
}

TEST(LegacyTest, MalformedLinesRejected) {
  EXPECT_FALSE(LegacyJsonFormat::Parse("{not json").ok());
  EXPECT_FALSE(LegacyJsonFormat::Parse("{\"other\":1}").ok());
  EXPECT_FALSE(LegacyDelimitedFormat::Parse("only\tthree\tcols").ok());
  EXPECT_FALSE(LegacyDelimitedFormat::Parse("x\t1\tip\tact\tblob").ok());
  EXPECT_FALSE(LegacyNaturalFormat::Parse("nonsense line").ok());
  EXPECT_FALSE(
      LegacyNaturalFormat::Parse("user abc performed x at 2012-01-01 00:00")
          .ok());
}

TEST(LegacyTest, DispatchByCategory) {
  ClientEvent ev = SampleEvent();
  auto a = ParseLegacy(LegacyJsonFormat::kCategory,
                       LegacyJsonFormat::Format(ev));
  auto b = ParseLegacy(LegacyDelimitedFormat::kCategory,
                       LegacyDelimitedFormat::Format(ev));
  auto c = ParseLegacy(LegacyNaturalFormat::kCategory,
                       LegacyNaturalFormat::Format(ev));
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(ParseLegacy("unknown_category", "x").status().IsNotFound());
}

// Property sweep: every format recovers user_id and action exactly for a
// range of users/actions. The action is a std::string, not a const char*, so
// the printed parameter (and hence the discovered ctest name) is the text
// itself rather than a pointer that changes with address randomisation.
class LegacyFormatSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, std::string>> {};

TEST_P(LegacyFormatSweep, AllFormatsRecoverIdentity) {
  auto [uid, action] = GetParam();
  ClientEvent ev = SampleEvent();
  ev.user_id = uid;
  ev.event_name = std::string("web:home:::tweet:") + action;

  for (auto format_and_parse :
       {+[](const ClientEvent& e) {
          return LegacyJsonFormat::Parse(LegacyJsonFormat::Format(e));
        },
        +[](const ClientEvent& e) {
          return LegacyDelimitedFormat::Parse(LegacyDelimitedFormat::Format(e));
        },
        +[](const ClientEvent& e) {
          return LegacyNaturalFormat::Parse(LegacyNaturalFormat::Format(e));
        }}) {
    auto rec = format_and_parse(ev);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->user_id, uid);
    EXPECT_EQ(rec->action, action);
  }
}

INSTANTIATE_TEST_SUITE_P(
    UsersAndActions, LegacyFormatSweep,
    ::testing::Combine(::testing::Values(int64_t{0}, int64_t{1},
                                         int64_t{999999999999}),
                       ::testing::Values(std::string("impression"),
                                         std::string("click"),
                                         std::string("follow"))));

}  // namespace
}  // namespace unilog::events
