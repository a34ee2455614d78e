// Tests for the session-sequence machinery of §4: event histograms, the
// frequency-ordered dictionary, sessionization with the 30-minute gap, the
// UTF-8 sequence encoding, and the daily sequence store.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/utf8.h"
#include "events/client_event.h"
#include "events/event_name.h"
#include "hdfs/mini_hdfs.h"
#include "sessions/dictionary.h"
#include "sessions/histogram.h"
#include "sessions/session_sequence.h"
#include "sessions/sessionizer.h"

namespace unilog::sessions {
namespace {

constexpr TimeMs kT0 = 1345507200000;  // 2012-08-21 00:00 UTC

// ---------------------------------------------------------------------------
// EventHistogram

TEST(HistogramTest, CountsAndTotals) {
  EventHistogram hist;
  hist.Add("a");
  hist.Add("a");
  hist.Add("b");
  EXPECT_EQ(hist.CountOf("a"), 2u);
  EXPECT_EQ(hist.CountOf("b"), 1u);
  EXPECT_EQ(hist.CountOf("nope"), 0u);
  EXPECT_EQ(hist.total_events(), 3u);
  EXPECT_EQ(hist.distinct_events(), 2u);
}

TEST(HistogramTest, SamplesCappedAtMax) {
  EventHistogram hist;
  for (int i = 0; i < 10; ++i) {
    std::string payload = "payload" + std::to_string(i);
    hist.Add("a", &payload);
  }
  EXPECT_EQ(hist.SamplesOf("a").size(), EventHistogram::kMaxSamples);
  EXPECT_EQ(hist.SamplesOf("a")[0], "payload0");
  EXPECT_TRUE(hist.SamplesOf("nope").empty());
}

TEST(HistogramTest, MergeCombinesCountsAndSamples) {
  EventHistogram a, b;
  std::string pa = "pa", pb = "pb";
  a.Add("x", &pa);
  b.Add("x", &pb);
  b.Add("y");
  b.AddCount("z", 5);
  a.Merge(b);
  EXPECT_EQ(a.CountOf("x"), 2u);
  EXPECT_EQ(a.CountOf("y"), 1u);
  EXPECT_EQ(a.CountOf("z"), 5u);
  EXPECT_EQ(a.total_events(), 8u);
  EXPECT_EQ(a.SamplesOf("x").size(), 2u);
}

TEST(HistogramTest, SortedByFrequencyDescendingWithNameTiebreak) {
  EventHistogram hist;
  hist.AddCount("mid", 5);
  hist.AddCount("top", 10);
  hist.AddCount("tie_b", 3);
  hist.AddCount("tie_a", 3);
  auto sorted = hist.SortedByFrequency();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].first, "top");
  EXPECT_EQ(sorted[1].first, "mid");
  EXPECT_EQ(sorted[2].first, "tie_a");
  EXPECT_EQ(sorted[3].first, "tie_b");
}

// ---------------------------------------------------------------------------
// EventDictionary

TEST(DictionaryTest, NthCodePointSkipsSurrogatesAndZero) {
  EXPECT_EQ(EventDictionary::NthCodePoint(0).value(), 1u);
  EXPECT_EQ(EventDictionary::NthCodePoint(1).value(), 2u);
  // The code point just before the surrogate block.
  EXPECT_EQ(EventDictionary::NthCodePoint(0xD7FF - 1).value(), 0xD7FFu);
  // The next assignment jumps the block.
  EXPECT_EQ(EventDictionary::NthCodePoint(0xD7FF).value(), 0xE000u);
  // Every produced code point is valid UTF-8 scalar.
  for (uint64_t n : {uint64_t{0}, uint64_t{100}, uint64_t{0xD7FE},
                     uint64_t{0xD7FF}, uint64_t{0x10000}, uint64_t{500000}}) {
    auto cp = EventDictionary::NthCodePoint(n);
    ASSERT_TRUE(cp.ok());
    EXPECT_TRUE(IsValidCodePoint(*cp)) << n;
  }
  // Exhaustion.
  EXPECT_TRUE(EventDictionary::NthCodePoint(0x110000).status().IsOutOfRange());
}

TEST(DictionaryTest, FrequentEventsGetSmallerCodePoints) {
  EventHistogram hist;
  hist.AddCount("web:home:::tweet:impression", 1000);
  hist.AddCount("web:home:::tweet:click", 100);
  hist.AddCount("web:profile:::page:view", 10);
  auto dict = EventDictionary::FromSortedCounts(hist.SortedByFrequency());
  ASSERT_TRUE(dict.ok());
  uint32_t cp_imp = dict->CodePointFor("web:home:::tweet:impression").value();
  uint32_t cp_click = dict->CodePointFor("web:home:::tweet:click").value();
  uint32_t cp_view = dict->CodePointFor("web:profile:::page:view").value();
  EXPECT_LT(cp_imp, cp_click);
  EXPECT_LT(cp_click, cp_view);
}

TEST(DictionaryTest, BijectiveMapping) {
  auto dict = EventDictionary::FromNamesInGivenOrder({"a", "b", "c"});
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->size(), 3u);
  for (const auto& name : {"a", "b", "c"}) {
    uint32_t cp = dict->CodePointFor(name).value();
    EXPECT_EQ(dict->NameFor(cp).value(), name);
  }
  EXPECT_TRUE(dict->CodePointFor("zzz").status().IsNotFound());
  EXPECT_TRUE(dict->NameFor(9999).status().IsNotFound());
  EXPECT_TRUE(dict->Contains("a"));
  EXPECT_FALSE(dict->Contains("zzz"));
}

TEST(DictionaryTest, DuplicateNamesRejected) {
  EXPECT_TRUE(EventDictionary::FromNamesInGivenOrder({"a", "a"})
                  .status().IsInvalidArgument());
}

TEST(DictionaryTest, ExpandPattern) {
  auto dict = EventDictionary::FromNamesInGivenOrder(
      {"web:home:mentions:stream:avatar:profile_click",
       "web:home:mentions:stream:tweet:impression",
       "iphone:home:::tweet:profile_click"});
  ASSERT_TRUE(dict.ok());
  auto clicks = dict->Expand(events::EventPattern("*:profile_click"));
  EXPECT_EQ(clicks.size(), 2u);
  auto mentions = dict->Expand(events::EventPattern("web:home:mentions:*"));
  EXPECT_EQ(mentions.size(), 2u);
  auto none = dict->Expand(events::EventPattern("android:*"));
  EXPECT_TRUE(none.empty());
}

TEST(DictionaryTest, EncodeDecodeNamesRoundTrip) {
  auto dict = EventDictionary::FromNamesInGivenOrder({"a", "b", "c"});
  ASSERT_TRUE(dict.ok());
  std::vector<std::string> names = {"c", "a", "a", "b", "c"};
  auto encoded = dict->EncodeNames(names);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(Utf8Length(*encoded), 5u);
  auto decoded = dict->DecodeToNames(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, names);
}

TEST(DictionaryTest, EncodeUnknownNameFails) {
  auto dict = EventDictionary::FromNamesInGivenOrder({"a"});
  ASSERT_TRUE(dict.ok());
  EXPECT_TRUE(dict->EncodeNames({"a", "mystery"}).status().IsNotFound());
}

TEST(DictionaryTest, SerializationRoundTrip) {
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) {
    names.push_back("web:page" + std::to_string(i) + ":::tweet:click");
  }
  auto dict = EventDictionary::FromNamesInGivenOrder(names);
  ASSERT_TRUE(dict.ok());
  std::string blob = dict->Serialize();
  auto back = EventDictionary::Deserialize(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 500u);
  for (const auto& name : names) {
    EXPECT_EQ(back->CodePointFor(name).value(),
              dict->CodePointFor(name).value());
  }
  EXPECT_FALSE(EventDictionary::Deserialize(blob.substr(0, 10)).ok());
}

TEST(DictionaryTest, NameCountBombIsCorruption) {
  // A 9-byte body claiming 2^62 names: the count is checked against the
  // bytes left before anything is reserved from it.
  std::string blob;
  PutVarint64(&blob, uint64_t{1} << 62);
  ASSERT_EQ(blob.size(), 9u);
  auto back = EventDictionary::Deserialize(blob);
  EXPECT_TRUE(back.status().IsCorruption()) << back.status().ToString();
}

TEST(DictionaryTest, VariableLengthCodingProperty) {
  // With >128 events, encoding a sequence of only the most frequent event
  // is strictly smaller than the same-length sequence of a rare event.
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) names.push_back("e" + std::to_string(i));
  auto dict = EventDictionary::FromNamesInGivenOrder(names);
  ASSERT_TRUE(dict.ok());
  std::vector<std::string> frequent(50, "e0"), rare(50, "e299");
  EXPECT_LT(dict->EncodeNames(frequent)->size(),
            dict->EncodeNames(rare)->size());
}

// ---------------------------------------------------------------------------
// Sessionizer

events::ClientEvent MakeEvent(int64_t user, const std::string& sess,
                              TimeMs ts, const std::string& name) {
  events::ClientEvent ev;
  ev.user_id = user;
  ev.session_id = sess;
  ev.ip = "10.0.0.1";
  ev.timestamp = ts;
  ev.event_name = name;
  return ev;
}

TEST(SessionizerTest, GroupsByUserAndSession) {
  Sessionizer szr;
  szr.Add(MakeEvent(1, "s1", kT0, "a"));
  szr.Add(MakeEvent(1, "s1", kT0 + 1000, "b"));
  szr.Add(MakeEvent(2, "s2", kT0, "c"));
  szr.Add(MakeEvent(1, "s9", kT0, "d"));
  auto sessions = szr.Build();
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_EQ(sessions[0].user_id, 1);
  EXPECT_EQ(sessions[0].session_id, "s1");
  EXPECT_EQ(sessions[0].event_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(sessions[1].session_id, "s9");
  EXPECT_EQ(sessions[2].user_id, 2);
  EXPECT_EQ(szr.event_count(), 4u);
}

TEST(SessionizerTest, OutOfOrderEventsSortedByTimestamp) {
  // Warehouse files are only partially time-ordered (§2); order of Add
  // must not matter.
  Sessionizer szr;
  szr.Add(MakeEvent(1, "s", kT0 + 2000, "third"));
  szr.Add(MakeEvent(1, "s", kT0, "first"));
  szr.Add(MakeEvent(1, "s", kT0 + 1000, "second"));
  auto sessions = szr.Build();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].event_names,
            (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_EQ(sessions[0].start, kT0);
  EXPECT_EQ(sessions[0].end, kT0 + 2000);
}

TEST(SessionizerTest, ThirtyMinuteGapSplitsSessions) {
  Sessionizer szr;
  szr.Add(MakeEvent(1, "s", kT0, "a"));
  // 29:59.999 later: same session (gap is NOT strictly greater).
  szr.Add(MakeEvent(1, "s", kT0 + kSessionInactivityGapMs, "b"));
  // Another 30:00.001 later: new session.
  szr.Add(MakeEvent(1, "s", kT0 + 2 * kSessionInactivityGapMs + 1, "c"));
  auto sessions = szr.Build();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].event_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(sessions[1].event_names, (std::vector<std::string>{"c"}));
}

TEST(SessionizerTest, DurationIsFirstToLastEvent) {
  Sessionizer szr;
  szr.Add(MakeEvent(1, "s", kT0, "a"));
  szr.Add(MakeEvent(1, "s", kT0 + 95 * kMillisPerSecond, "b"));
  auto sessions = szr.Build();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].DurationSeconds(), 95);
}

TEST(SessionizerTest, SingleEventSessionHasZeroDuration) {
  Sessionizer szr;
  szr.Add(MakeEvent(1, "s", kT0, "a"));
  auto sessions = szr.Build();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].DurationSeconds(), 0);
  EXPECT_EQ(sessions[0].event_names.size(), 1u);
}

TEST(SessionizerTest, CustomGap) {
  SessionizerOptions opts;
  opts.inactivity_gap_ms = 5 * kMillisPerMinute;
  Sessionizer szr(opts);
  szr.Add(MakeEvent(1, "s", kT0, "a"));
  szr.Add(MakeEvent(1, "s", kT0 + 6 * kMillisPerMinute, "b"));
  EXPECT_EQ(szr.Build().size(), 2u);
}

TEST(SessionizerTest, SameSessionIdDifferentUsersSeparate) {
  // The group-by key is (user_id, session_id): cookie collisions across
  // users must not merge.
  Sessionizer szr;
  szr.Add(MakeEvent(1, "cookie", kT0, "a"));
  szr.Add(MakeEvent(2, "cookie", kT0 + 1000, "b"));
  EXPECT_EQ(szr.Build().size(), 2u);
}

// ---------------------------------------------------------------------------
// SessionSequence encoding

TEST(SessionSequenceTest, EncodeSessionThroughDictionary) {
  auto dict = EventDictionary::FromNamesInGivenOrder({"imp", "click"});
  ASSERT_TRUE(dict.ok());
  Session session;
  session.user_id = 7;
  session.session_id = "s";
  session.ip = "1.2.3.4";
  session.start = kT0;
  session.end = kT0 + 60 * kMillisPerSecond;
  session.event_names = {"imp", "imp", "click"};
  auto seq = EncodeSession(session, *dict);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->EventCount(), 3u);
  EXPECT_EQ(seq->duration_seconds, 60);
  auto names = dict->DecodeToNames(seq->sequence);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, session.event_names);
}

TEST(SessionSequenceTest, RecordSerializationRoundTrip) {
  SessionSequence seq;
  seq.user_id = -5;  // negative ids survive zigzag
  seq.session_id = "sess";
  seq.ip = "10.0.0.1";
  seq.sequence = "\x01\x02\x03";
  seq.duration_seconds = 1234;
  std::string body;
  AppendSequenceRecord(&body, seq);
  AppendSequenceRecord(&body, seq);
  SequenceRecordReader reader(body);
  SessionSequence a, b, c;
  ASSERT_TRUE(reader.Next(&a).ok());
  ASSERT_TRUE(reader.Next(&b).ok());
  EXPECT_EQ(a, seq);
  EXPECT_EQ(b, seq);
  EXPECT_TRUE(reader.Next(&c).IsNotFound());
}

TEST(SessionSequenceTest, TruncatedRecordIsCorruption) {
  SessionSequence seq;
  seq.session_id = "sess";
  std::string body;
  AppendSequenceRecord(&body, seq);
  SequenceRecordReader reader(std::string_view(body).substr(0, 3));
  SessionSequence out;
  EXPECT_TRUE(reader.Next(&out).IsCorruption());
}

// ---------------------------------------------------------------------------
// SequenceStore

class SequenceStoreTest : public ::testing::Test {
 protected:
  SequenceStoreTest() {
    auto dict = EventDictionary::FromNamesInGivenOrder({"imp", "click"});
    dict_ = *dict;
    for (int i = 0; i < 100; ++i) {
      SessionSequence seq;
      seq.user_id = i;
      seq.session_id = "s" + std::to_string(i);
      seq.ip = "10.0.0.1";
      seq.sequence = dict_.EncodeNames({"imp", "click"}).value();
      seq.duration_seconds = i;
      seqs_.push_back(seq);
    }
  }

  hdfs::MiniHdfs fs_;
  EventDictionary dict_;
  std::vector<SessionSequence> seqs_;
};

TEST_F(SequenceStoreTest, WriteAndLoadDaily) {
  ASSERT_TRUE(SequenceStore::WriteDaily(&fs_, kT0, seqs_, dict_).ok());
  EXPECT_TRUE(fs_.Exists("/session_sequences/2012-08-21/_SUCCESS"));
  EXPECT_TRUE(fs_.Exists("/session_sequences/2012-08-21/_dictionary"));

  auto loaded = SequenceStore::LoadDaily(fs_, kT0);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), seqs_.size());
  for (size_t i = 0; i < seqs_.size(); ++i) {
    EXPECT_EQ((*loaded)[i], seqs_[i]);
  }

  auto dict = SequenceStore::LoadDictionary(fs_, kT0);
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->CodePointFor("imp").value(),
            dict_.CodePointFor("imp").value());
}

TEST_F(SequenceStoreTest, WriteOncePerDay) {
  ASSERT_TRUE(SequenceStore::WriteDaily(&fs_, kT0, seqs_, dict_).ok());
  EXPECT_TRUE(
      SequenceStore::WriteDaily(&fs_, kT0, seqs_, dict_).IsAlreadyExists());
  // A different day is fine.
  EXPECT_TRUE(
      SequenceStore::WriteDaily(&fs_, kT0 + kMillisPerDay, seqs_, dict_).ok());
}

TEST_F(SequenceStoreTest, SmallTargetSplitsIntoMultipleParts) {
  SequenceStore::WriteOptions opts;
  opts.target_file_bytes = 64;
  ASSERT_TRUE(SequenceStore::WriteDaily(&fs_, kT0, seqs_, dict_, opts).ok());
  auto files = fs_.ListRecursive("/session_sequences/2012-08-21");
  ASSERT_TRUE(files.ok());
  int parts = 0;
  for (const auto& f : *files) {
    if (f.path.find("/part-") != std::string::npos) ++parts;
  }
  EXPECT_GT(parts, 1);
  auto loaded = SequenceStore::LoadDaily(fs_, kT0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), seqs_.size());
}

TEST_F(SequenceStoreTest, MissingPartitionNotFound) {
  EXPECT_TRUE(SequenceStore::LoadDaily(fs_, kT0).status().IsNotFound());
  EXPECT_TRUE(SequenceStore::LoadDictionary(fs_, kT0).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// End-to-end §4.2 property: compression factor vs raw client event logs.

TEST(SessionSequenceCompressionTest, SequencesAreMuchSmallerThanRawEvents) {
  // 200 users x 20-event sessions over a small alphabet.
  std::vector<std::string> alphabet;
  for (int i = 0; i < 50; ++i) {
    alphabet.push_back("web:home:::tweet:action" + std::to_string(i));
  }
  EventHistogram hist;
  Sessionizer szr;
  std::string raw_logs;
  events::ClientEventWriter writer(&raw_logs);
  for (int u = 0; u < 200; ++u) {
    for (int e = 0; e < 20; ++e) {
      events::ClientEvent ev;
      ev.user_id = u;
      ev.session_id = "sess" + std::to_string(u);
      ev.ip = "10.1.2.3";
      ev.timestamp = kT0 + e * 10000;
      ev.event_name = alphabet[(u * 7 + e) % alphabet.size()];
      ev.details = {{"src", "test"}, {"pos", std::to_string(e)}};
      hist.Add(ev.event_name);
      szr.Add(ev);
      writer.Add(ev);
    }
  }
  auto dict = EventDictionary::FromSortedCounts(hist.SortedByFrequency());
  ASSERT_TRUE(dict.ok());
  std::string seq_blob;
  for (const auto& session : szr.Build()) {
    auto seq = EncodeSession(session, *dict);
    ASSERT_TRUE(seq.ok());
    AppendSequenceRecord(&seq_blob, *seq);
  }
  // The paper reports ~50x; at minimum the sequences must be an order of
  // magnitude smaller, uncompressed-to-uncompressed.
  EXPECT_LT(seq_blob.size() * 10, raw_logs.size());
}

// ---------------------------------------------------------------------------
// Parallel determinism: Build(executor) sessionizes (user, session) groups
// across worker threads but must return exactly the sessions the serial
// Build() produces, in the same order.

TEST(SessionizerTest, ParallelBuildMatchesSerial) {
  Sessionizer serial_szr;
  Sessionizer parallel_szr;
  // Many interleaved users/sessions, with ties and gap splits mixed in.
  for (int i = 0; i < 2500; ++i) {
    int64_t user = (i * 17) % 40;
    std::string sess = "s" + std::to_string((i * 5) % 3);
    TimeMs ts = kT0 + (i % 2 == 0 ? i : 2500 - i) * 45000;
    auto ev = MakeEvent(user, sess, ts, "e" + std::to_string(i % 11));
    serial_szr.Add(ev);
    parallel_szr.Add(ev);
  }
  auto serial = serial_szr.Build();
  for (int threads : {2, 8}) {
    exec::ExecOptions opts;
    opts.threads = threads;
    exec::Executor executor(opts);
    auto parallel = parallel_szr.Build(&executor);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(parallel[s].user_id, serial[s].user_id) << "session " << s;
      EXPECT_EQ(parallel[s].session_id, serial[s].session_id);
      EXPECT_EQ(parallel[s].ip, serial[s].ip);
      EXPECT_EQ(parallel[s].start, serial[s].start);
      EXPECT_EQ(parallel[s].end, serial[s].end);
      EXPECT_EQ(parallel[s].event_names, serial[s].event_names);
    }
  }
}

}  // namespace
}  // namespace unilog::sessions
