// Tests for the simplified RCFile columnar layout (§4.2's rejected
// alternative): round trips, projection reads, corruption handling, the
// scan fast path (zone maps, dictionaries, pushdown pruning), the column
// encodings under hostile bytes, and the refusal of every body that is
// not RCF3.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "columnar/rcfile.h"
#include "columnar/scrubber.h"
#include "common/coding.h"
#include "common/compress.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "landing_oracle.h"
#include "obs/metrics.h"
#include "rcfile_hostile.h"
#include "scan_oracle.h"

namespace unilog::columnar {
namespace {

std::vector<events::ClientEvent> MakeEvents(size_t n) {
  std::vector<events::ClientEvent> out;
  Rng rng(17);
  for (size_t i = 0; i < n; ++i) {
    events::ClientEvent ev;
    ev.initiator = static_cast<events::EventInitiator>(i % 4);
    ev.event_name = "web:home:::tweet:action" + std::to_string(i % 7);
    ev.user_id = static_cast<int64_t>(1000 + i % 13);
    ev.session_id = "s" + std::to_string(i % 13);
    ev.ip = "10.0.0." + std::to_string(i % 200);
    ev.timestamp = 1345507200000 + static_cast<TimeMs>(i) * 1000;
    if (i % 3 == 0) {
      ev.details = {{"rank", std::to_string(i)}, {"lang", "en"}};
    }
    out.push_back(std::move(ev));
  }
  return out;
}

std::string WriteAll(const std::vector<events::ClientEvent>& events,
                     size_t rows_per_group) {
  std::string body;
  RcFileWriter writer(&body, rows_per_group);
  for (const auto& ev : events) writer.Add(ev);
  writer.Finish();
  return body;
}

// Stored bytes of every column blob in the file, from the headers.
uint64_t TotalBlobBytes(const RcFileReader& reader) {
  auto groups = reader.CollectGroupStats();
  EXPECT_TRUE(groups.ok());
  uint64_t total = 0;
  for (const auto& group : *groups) total += group.blob_bytes;
  return total;
}

TEST(RcFileTest, FullRoundTrip) {
  auto events = MakeEvents(100);
  std::string body = WriteAll(events, 32);  // several groups + partial tail
  RcFileReader reader(body);
  std::vector<events::ClientEvent> back;
  ASSERT_TRUE(reader.ReadAll(kAllColumns, &back).ok());
  ASSERT_EQ(back.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i], events[i]) << i;
  }
}

TEST(RcFileTest, ProjectionPopulatesOnlyRequestedColumns) {
  auto events = MakeEvents(50);
  std::string body = WriteAll(events, 16);
  RcFileReader reader(body);
  std::vector<events::ClientEvent> back;
  ASSERT_TRUE(reader
                  .ReadAll(ColumnBit(EventColumn::kEventName) |
                               ColumnBit(EventColumn::kUserId),
                           &back)
                  .ok());
  ASSERT_EQ(back.size(), events.size());
  EXPECT_EQ(back[0].event_name, events[0].event_name);
  EXPECT_EQ(back[0].user_id, events[0].user_id);
  // Unrequested columns keep defaults.
  EXPECT_TRUE(back[0].session_id.empty());
  EXPECT_TRUE(back[0].ip.empty());
  EXPECT_EQ(back[0].timestamp, 0);
  EXPECT_TRUE(back[0].details.empty());
}

TEST(RcFileTest, ProjectionTouchesFewerBytes) {
  auto events = MakeEvents(500);
  std::string body = WriteAll(events, 128);
  RcFileReader reader(body);

  std::vector<events::ClientEvent> out;
  ScanStats full;
  ASSERT_TRUE(reader.Scan(ScanSpec(), &out, &full).ok());

  ScanSpec names_only;
  names_only.columns = ColumnBit(EventColumn::kEventName);
  ScanStats narrow;
  ASSERT_TRUE(reader.Scan(names_only, &out, &narrow).ok());

  EXPECT_LT(narrow.bytes_decompressed, full.bytes_decompressed / 2);
  EXPECT_EQ(full.bytes_decompressed, TotalBlobBytes(reader));
}

TEST(RcFileTest, NameOnlyScanMatchesRows) {
  auto events = MakeEvents(77);
  const std::string body = WriteAll(events, 25);
  ScanSpec names_only;
  names_only.columns = ColumnBit(EventColumn::kEventName);
  std::vector<events::ClientEvent> got;
  ASSERT_TRUE(RcFileReader(body).Scan(names_only, &got).ok());
  ASSERT_EQ(got.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    events::ClientEvent want;
    want.event_name = events[i].event_name;
    EXPECT_EQ(got[i], want) << "row " << i;
  }
}

TEST(RcFileTest, EmptyFile) {
  std::string body = WriteAll({}, 16);
  EXPECT_TRUE(body.empty());
  RcFileReader reader(body);
  std::vector<events::ClientEvent> out;
  ASSERT_TRUE(reader.ReadAll(kAllColumns, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(RcFileTest, SingleRowGroups) {
  auto events = MakeEvents(5);
  std::string body = WriteAll(events, 1);
  RcFileReader reader(body);
  std::vector<events::ClientEvent> back;
  ASSERT_TRUE(reader.ReadAll(kAllColumns, &back).ok());
  EXPECT_EQ(back.size(), 5u);
  EXPECT_EQ(back[4], events[4]);
}

TEST(RcFileTest, CorruptionDetected) {
  auto events = MakeEvents(20);
  std::string body = WriteAll(events, 8);
  RcFileReader truncated(std::string_view(body).substr(0, body.size() / 2));
  std::vector<events::ClientEvent> out;
  EXPECT_FALSE(truncated.ReadAll(kAllColumns, &out).ok());

  std::string garbled = body;
  garbled[body.size() / 3] ^= 0x5A;
  RcFileReader bad(garbled);
  out.clear();
  // Either a decompression failure or a decode failure — not OK.
  EXPECT_FALSE(bad.ReadAll(kAllColumns, &out).ok());
}

TEST(RcFileTest, FinishIsIdempotentAndRequired) {
  auto events = MakeEvents(10);
  std::string body;
  RcFileWriter writer(&body, 100);  // all rows pending
  for (const auto& ev : events) writer.Add(ev);
  // Without Finish, the trailing group is not on disk yet.
  {
    RcFileReader reader(body);
    std::vector<events::ClientEvent> out;
    ASSERT_TRUE(reader.ReadAll(kAllColumns, &out).ok());
    EXPECT_TRUE(out.empty());
  }
  writer.Finish();
  writer.Finish();  // idempotent
  RcFileReader reader(body);
  std::vector<events::ClientEvent> out;
  ASSERT_TRUE(reader.ReadAll(kAllColumns, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

// Pins the column decoder: every column, read alone, round-trips (details
// included) and leaves every other field at its default. RCF3 is the one
// version the reader reads.
TEST(RcFileTest, EveryColumnRoundTripsAloneInEveryVersion) {
  auto events = MakeEvents(45);
  const std::string body = WriteAll(events, 16);
  for (int c = 0; c < kEventColumns; ++c) {
    std::vector<events::ClientEvent> got;
    ASSERT_TRUE(RcFileReader(body).ReadAll(1u << c, &got).ok());
    ASSERT_EQ(got.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      events::ClientEvent want;
      const events::ClientEvent& e = events[i];
      switch (static_cast<EventColumn>(c)) {
        case EventColumn::kInitiator: want.initiator = e.initiator; break;
        case EventColumn::kEventName: want.event_name = e.event_name; break;
        case EventColumn::kUserId: want.user_id = e.user_id; break;
        case EventColumn::kSessionId: want.session_id = e.session_id; break;
        case EventColumn::kIp: want.ip = e.ip; break;
        case EventColumn::kTimestamp: want.timestamp = e.timestamp; break;
        case EventColumn::kDetails: want.details = e.details; break;
      }
      EXPECT_EQ(got[i], want) << "column " << c << " row " << i;
    }
  }
}

TEST(RcFileTest, InvalidColumnMaskRejected) {
  auto events = MakeEvents(4);
  std::string body = WriteAll(events, 4);
  RcFileReader reader(body);
  std::vector<events::ClientEvent> out;
  Status st = reader.ReadAll(kAllColumns | (1u << kEventColumns), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(reader.ReadAll(1u << 13, &out).ok());

  ScanSpec spec;
  spec.columns = 1u << 30;
  EXPECT_FALSE(reader.Scan(spec, &out).ok());
}

TEST(RcFileTest, AddAfterFinishFails) {
  auto events = MakeEvents(3);
  std::string body;
  RcFileWriter writer(&body, 8);
  for (const auto& ev : events) ASSERT_TRUE(writer.Add(ev).ok());
  ASSERT_TRUE(writer.Finish().ok());
  size_t size_after_finish = body.size();

  Status st = writer.Add(events[0]);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_EQ(writer.rows_written(), 3u);
  EXPECT_EQ(body.size(), size_after_finish);  // file tail untouched
}

TEST(RcFileTest, TruncatedHeaderReportsCorruption) {
  auto events = MakeEvents(12);
  std::string body = WriteAll(events, 4);
  ASSERT_TRUE(IsRcFile(body));
  // Any cut inside the first group (header, checksums, or blobs) must be
  // a Status error, never UB; cutting exactly after the magic is a valid
  // empty file.
  std::vector<events::ClientEvent> out;
  {
    RcFileReader reader(std::string_view(body).substr(0, 4));
    out.clear();
    EXPECT_TRUE(reader.ReadAll(kAllColumns, &out).ok());
    EXPECT_TRUE(out.empty());
  }
  for (size_t cut = 5; cut < std::min<size_t>(body.size(), 64); ++cut) {
    RcFileReader reader(std::string_view(body).substr(0, cut));
    out.clear();
    EXPECT_FALSE(reader.ReadAll(kAllColumns, &out).ok()) << "cut=" << cut;
  }
}

TEST(RcFileTest, HeaderByteFlipIsCorruption) {
  auto events = MakeEvents(40);
  std::string body = WriteAll(events, 40);  // one group
  ASSERT_TRUE(IsRcFile(body));
  // Flip bytes across the header region (row count, zone map, and the
  // uncompressed dictionaries); the header checksum must catch each one
  // rather than silently decoding different event names.
  for (size_t pos : {5u, 9u, 14u, 20u, 28u, 36u}) {
    ASSERT_LT(pos, body.size());
    std::string garbled = body;
    garbled[pos] ^= 0x5A;
    RcFileReader reader(garbled);
    std::vector<events::ClientEvent> out;
    EXPECT_FALSE(reader.ReadAll(kAllColumns, &out).ok()) << "pos=" << pos;
  }
}

// Time-ordered fixture: group g holds timestamps [g*1000*rows, ...), so
// zone maps partition the time axis cleanly.
std::vector<events::ClientEvent> MakeTimeOrderedEvents(size_t n) {
  auto events = MakeEvents(n);  // MakeEvents timestamps already ascend
  return events;
}

TEST(RcFileTest, ZoneMapSkipsGroupsOnTimestampRange) {
  auto events = MakeTimeOrderedEvents(80);
  std::string body = WriteAll(events, 8);  // 10 groups
  RcFileReader reader(body);

  ScanSpec spec;
  spec.min_timestamp = events[30].timestamp;
  spec.max_timestamp = events[41].timestamp;
  std::vector<events::ClientEvent> got;
  ScanStats stats;
  ASSERT_TRUE(reader.Scan(spec, &got, &stats).ok());

  std::vector<events::ClientEvent> want;
  for (const auto& ev : events) {
    if (ev.timestamp >= *spec.min_timestamp &&
        ev.timestamp <= *spec.max_timestamp) {
      want.push_back(ev);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(stats.groups_total, 10u);
  EXPECT_GE(stats.groups_skipped, 7u);  // only ~2 groups overlap the range
  EXPECT_EQ(stats.groups_scanned + stats.groups_skipped, stats.groups_total);
  EXPECT_EQ(stats.rows_returned, want.size());
  EXPECT_EQ(stats.rows_pruned + stats.rows_returned, events.size());
  EXPECT_LT(stats.bytes_decompressed, TotalBlobBytes(reader));
}

TEST(RcFileTest, ZoneMapSkipsGroupsOnUserIds) {
  std::vector<events::ClientEvent> events;
  for (size_t i = 0; i < 60; ++i) {
    events::ClientEvent ev;
    ev.event_name = "web:e";
    ev.user_id = static_cast<int64_t>(i / 10) * 1000;  // 6 uid bands
    ev.timestamp = 1345507200000 + static_cast<TimeMs>(i);
    events.push_back(std::move(ev));
  }
  std::string body = WriteAll(events, 10);  // one group per uid band
  RcFileReader reader(body);
  ScanSpec spec;
  spec.user_ids = std::set<int64_t>{3000};
  std::vector<events::ClientEvent> got;
  ScanStats stats;
  ASSERT_TRUE(reader.Scan(spec, &got, &stats).ok());
  EXPECT_EQ(got.size(), 10u);
  for (const auto& ev : got) EXPECT_EQ(ev.user_id, 3000);
  EXPECT_EQ(stats.groups_skipped, 5u);
  EXPECT_EQ(stats.groups_scanned, 1u);
}

TEST(RcFileTest, DictionarySkipsGroupsWithoutMatchingName) {
  std::vector<events::ClientEvent> events;
  for (size_t i = 0; i < 50; ++i) {
    events::ClientEvent ev;
    ev.event_name = i < 30 ? "web:home:click" : "api:timeline:fetch";
    ev.user_id = 7;
    ev.timestamp = 1345507200000 + static_cast<TimeMs>(i);
    events.push_back(std::move(ev));
  }
  std::string body = WriteAll(events, 10);  // groups 0-2 click, 3-4 fetch
  {
    RcFileReader reader(body);
    ScanSpec spec;
    spec.event_names = std::set<std::string>{"api:timeline:fetch"};
    std::vector<events::ClientEvent> got;
    ScanStats stats;
    ASSERT_TRUE(reader.Scan(spec, &got, &stats).ok());
    EXPECT_EQ(got.size(), 20u);
    EXPECT_EQ(stats.groups_skipped, 3u);  // the all-click groups
  }
  {
    RcFileReader reader(body);
    ScanSpec spec;
    spec.event_name_patterns.push_back("web:*");
    std::vector<events::ClientEvent> got;
    ScanStats stats;
    ASSERT_TRUE(reader.Scan(spec, &got, &stats).ok());
    EXPECT_EQ(got.size(), 30u);
    EXPECT_EQ(stats.groups_skipped, 2u);  // the all-fetch groups
  }
}

TEST(RcFileTest, EncodedPruningDropsRowsBeforeMaterialization) {
  auto events = MakeEvents(90);  // 7 names interleaved in every group
  std::string body = WriteAll(events, 30);
  RcFileReader reader(body);
  ScanSpec spec;
  spec.event_names = std::set<std::string>{"web:home:::tweet:action3"};
  std::vector<events::ClientEvent> got;
  ScanStats stats;
  ASSERT_TRUE(reader.Scan(spec, &got, &stats).ok());

  std::vector<events::ClientEvent> want;
  for (const auto& ev : events) {
    if (ev.event_name == "web:home:::tweet:action3") want.push_back(ev);
  }
  EXPECT_EQ(got, want);
  // Every group holds all 7 names, so none skip; rows are pruned on
  // dictionary ids instead.
  EXPECT_EQ(stats.groups_skipped, 0u);
  EXPECT_EQ(stats.groups_scanned, stats.groups_total);
  EXPECT_GT(stats.rows_pruned, 0u);
  EXPECT_EQ(stats.rows_pruned + stats.rows_returned, events.size());
}

TEST(RcFileTest, ScanProjectionKeepsUnrequestedColumnsDefault) {
  auto events = MakeEvents(24);
  std::string body = WriteAll(events, 8);
  RcFileReader reader(body);
  ScanSpec spec;
  spec.columns =
      ColumnBit(EventColumn::kEventName) | ColumnBit(EventColumn::kTimestamp);
  spec.event_name_patterns.push_back("web:*");
  std::vector<events::ClientEvent> got;
  ASSERT_TRUE(reader.Scan(spec, &got, nullptr).ok());
  ASSERT_EQ(got.size(), events.size());
  EXPECT_EQ(got[5].event_name, events[5].event_name);
  EXPECT_EQ(got[5].timestamp, events[5].timestamp);
  EXPECT_EQ(got[5].user_id, 0);
  EXPECT_TRUE(got[5].session_id.empty());
  EXPECT_TRUE(got[5].details.empty());
}

TEST(RcFileTest, GroupParallelScanMatchesSerial) {
  auto events = MakeEvents(200);
  std::string body = WriteAll(events, 16);
  RcFileReader reader(body);
  ScanSpec spec;
  spec.min_timestamp = events[40].timestamp;
  spec.max_timestamp = events[150].timestamp;
  spec.event_name_patterns.push_back("*:action?");

  std::vector<events::ClientEvent> serial;
  ASSERT_TRUE(reader.Scan(spec, &serial, nullptr).ok());

  auto groups = reader.IndexGroups();
  ASSERT_TRUE(groups.ok());
  for (int threads : {2, 8}) {
    exec::ExecOptions opts;
    opts.threads = threads;
    exec::Executor executor(opts);
    std::vector<std::vector<events::ClientEvent>> slots(groups->size());
    ASSERT_TRUE(executor
                    .ParallelForStatus(
                        "scan", groups->size(),
                        [&](size_t g) {
                          return reader.ScanGroup((*groups)[g], spec,
                                                  &slots[g], nullptr);
                        })
                    .ok());
    std::vector<events::ClientEvent> merged;
    for (const auto& slot : slots) {
      merged.insert(merged.end(), slot.begin(), slot.end());
    }
    EXPECT_EQ(merged, serial) << "threads=" << threads;
  }
}

TEST(RcFileTest, ReportScanStatsIncrementsCounters) {
  obs::MetricsRegistry metrics;
  ScanStats stats;
  stats.groups_scanned = 3;
  stats.groups_skipped = 7;
  stats.bytes_decompressed = 4096;
  stats.rows_pruned = 90;
  stats.rows_returned = 10;
  ReportScanStats(stats, &metrics, "/logs/client_events");
  ReportScanStats(stats, &metrics, "/logs/client_events");  // accumulates
  EXPECT_EQ(metrics.CounterTotal("columnar.groups_scanned"), 6u);
  EXPECT_EQ(metrics.CounterTotal("columnar.groups_skipped"), 14u);
  EXPECT_EQ(metrics.CounterTotal("columnar.bytes_decompressed"), 8192u);
  EXPECT_EQ(metrics.CounterTotal("columnar.rows_pruned"), 180u);
  EXPECT_EQ(metrics.CounterTotal("columnar.rows_returned"), 20u);
  ReportScanStats(stats, nullptr, "x");  // null registry is a no-op
}

// ---------------------------------------------------------------------------
// Hostile input: every reader entry point answers damaged bytes —
// truncations, byte flips, row-count and dictionary bombs — with a
// Status, never a crash, and never sizes memory from a claimed count.

// Runs `body` through IndexGroups, ScanGroupColumnar (plain and with
// predicates), Scan, CollectGroupStats and ContentFingerprint. Returns
// whether the full Scan succeeded.
bool DriveEveryReader(std::string_view body) {
  RcFileReader reader(body);
  ScanSpec narrow;
  narrow.columns = ColumnBit(EventColumn::kInitiator);
  narrow.event_name_patterns.push_back("web:*");
  narrow.min_timestamp = 1345507210000;
  narrow.user_ids = std::set<int64_t>{1001, 1004};
  if (auto groups = reader.IndexGroups(); groups.ok()) {
    for (const auto& group : *groups) {
      for (const ScanSpec& spec : {ScanSpec(), narrow}) {
        RcFileReader::ColumnarGroup cg;
        ScanStats stats;
        (void)reader.ScanGroupColumnar(group, spec, &cg, &stats);
      }
    }
  }
  (void)reader.CollectGroupStats();
  (void)reader.ContentFingerprint();
  std::vector<events::ClientEvent> out;
  (void)reader.Scan(narrow, &out);
  out.clear();
  return reader.Scan(ScanSpec(), &out).ok();
}

TEST(RcFileHostileTest, EveryTruncationFailsUnlessOnAGroupBoundary) {
  auto events = MakeEvents(40);
  std::string body = WriteAll(events, 16);
  // The empty body, the bare magic (no groups) and every group end.
  std::set<size_t> boundaries = {0, 4, body.size()};
  auto groups = RcFileReader(body).IndexGroups();
  ASSERT_TRUE(groups.ok());
  for (const auto& g : *groups) boundaries.insert(g.offset);
  for (size_t cut = 0; cut <= body.size(); ++cut) {
    bool ok = DriveEveryReader(std::string_view(body).substr(0, cut));
    EXPECT_EQ(ok, boundaries.count(cut) > 0) << "cut=" << cut;
  }
}

TEST(RcFileHostileTest, SeededByteFlipsNeverCrash) {
  auto events = MakeEvents(40);
  Rng rng(20120821);
  const std::string body = WriteAll(events, 16);
  for (int trial = 0; trial < 1200; ++trial) {
    std::string garbled = body;
    const size_t pos = rng.Uniform(garbled.size());
    garbled[pos] ^= static_cast<char>(1 + rng.Uniform(255));
    // A flipped magic byte leaves a body that is not RCF3; past the
    // magic, the header and blob checksums catch any single flipped byte.
    EXPECT_FALSE(DriveEveryReader(garbled)) << "pos=" << pos;
  }
}

// Groups claiming kMaxRowsPerGroup rows over empty and over 4-row column
// blobs, with their checksums recomputed, so only the row count betrays
// them.
std::vector<std::string> RowCountBombs() {
  return {
      rcfile_hostile::Group(kMaxRowsPerGroup,
                            std::vector<std::string>(kEventColumns)),
      rcfile_hostile::Group(kMaxRowsPerGroup, rcfile_hostile::ValidBlobs())};
}

TEST(RcFileHostileTest, RowCountBombsAreCorruptionBeforeAnyAllocation) {
  for (const std::string& body : RowCountBombs()) {
    ASSERT_LT(body.size(), 64u);
    RcFileReader reader(body);
    auto groups = reader.IndexGroups();
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    ASSERT_EQ(groups->size(), 1u);
    EXPECT_EQ((*groups)[0].row_count, kMaxRowsPerGroup);
    for (ColumnMask mask : {kAllColumns, ColumnMask{0}}) {
      ScanSpec spec;
      spec.columns = mask;
      std::vector<events::ClientEvent> out;
      Status st = reader.Scan(spec, &out);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_TRUE(out.empty());
      RcFileReader::ColumnarGroup cg;
      st = reader.ScanGroupColumnar((*groups)[0], spec, &cg, nullptr);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_EQ(cg.rows, 0u);
    }
  }
}

TEST(RcFileHostileTest, DictionaryCountBombIsCorruption) {
  // A header claiming as many dictionary entries as rows, with almost no
  // bytes behind the claim.
  std::string body(kRcFileMagic);
  PutVarint64(&body, kMaxRowsPerGroup);
  for (int i = 0; i < 4; ++i) PutSignedVarint64(&body, 0);
  PutVarint64(&body, kMaxRowsPerGroup);
  PutLengthPrefixed(&body, "web:e");
  RcFileReader reader(body);
  EXPECT_TRUE(reader.IndexGroups().status().IsCorruption());
  EXPECT_TRUE(reader.CollectGroupStats().status().IsCorruption());
  EXPECT_TRUE(reader.ContentFingerprint().status().IsCorruption());
  std::vector<events::ClientEvent> out;
  EXPECT_TRUE(reader.Scan(ScanSpec(), &out).IsCorruption());
  EXPECT_FALSE(DriveEveryReader(body));
}

// RCF3 is the one format the reader reads. An "RCF2" group, a group with
// no magic (the v1 layout) and a framed Lz part are all well-formed
// bodies of other layouts; each is Corruption at every entry point, never
// decoded as something else.
TEST(RcFileHostileTest, OnlyRcf3BodiesAreRead) {
  auto events = MakeEvents(20);
  auto frozen = [&events](int version) {
    std::string body;
    landing_oracle::RowWriter writer(&body, 32, version);
    for (const auto& ev : events) writer.Add(ev);
    writer.Finish();
    return body;
  };
  std::string framed;
  events::ClientEventWriter framed_writer(&framed);
  for (const auto& ev : events) framed_writer.Add(ev);
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"RCF2 group", frozen(2)},
      {"group with no magic", frozen(1)},
      {"framed Lz part", Lz::Compress(framed)},
  };
  for (const auto& [what, body] : bodies) {
    SCOPED_TRACE(what);
    ASSERT_FALSE(body.empty());
    EXPECT_FALSE(IsRcFile(body));
    RcFileReader reader(body);
    EXPECT_TRUE(reader.IndexGroups().status().IsCorruption());
    EXPECT_TRUE(reader.CollectGroupStats().status().IsCorruption());
    EXPECT_TRUE(reader.ContentFingerprint().status().IsCorruption());
    std::vector<events::ClientEvent> out;
    EXPECT_TRUE(reader.Scan(ScanSpec(), &out).IsCorruption());
    EXPECT_TRUE(out.empty());
    // A handle at the group start of either layout.
    for (size_t offset : {size_t{0}, size_t{4}}) {
      const RcFileReader::RowGroupHandle group{offset, events.size(),
                                               body.size() - offset};
      RcFileReader::ColumnarGroup cg;
      Status st = reader.ScanGroupColumnar(group, ScanSpec(), &cg, nullptr);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_EQ(cg.rows, 0u);
    }
  }
}

// The v3 column encodings: a packed run's width and exact length, codes
// against their page or dictionary, details counts against the codes left,
// and page counts are each checked before anything is sized from them.
TEST(RcFileHostileTest, V3BombsAreCorruption) {
  {
    const std::string valid = rcfile_hostile::Group(
        rcfile_hostile::kRows, rcfile_hostile::ValidBlobs());
    std::vector<events::ClientEvent> out;
    ASSERT_TRUE(RcFileReader(valid).Scan(ScanSpec(), &out).ok());
    ASSERT_EQ(out.size(), rcfile_hostile::kRows);
    EXPECT_EQ(out[3].session_id, "s");
    EXPECT_EQ(out[3].ip, "10.0.0.1");
    EXPECT_TRUE(DriveEveryReader(valid));
  }
  for (const auto& bomb : rcfile_hostile::V3Bombs()) {
    SCOPED_TRACE(bomb.what);
    ASSERT_LT(bomb.body.size(), 128u);
    RcFileReader reader(bomb.body);
    // The header is intact: indexing, stats and fingerprints still work.
    auto groups = reader.IndexGroups();
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    EXPECT_TRUE(reader.ContentFingerprint().ok());
    std::vector<events::ClientEvent> out;
    Status st = reader.Scan(ScanSpec(), &out);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find(bomb.reason), std::string::npos)
        << st.ToString();
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(DriveEveryReader(bomb.body));
  }
}

// ---------------------------------------------------------------------------
// Content fingerprints (the input half of the Oink cache key): derived
// from the embedded per-group checksums, no blob decompression.

TEST(ContentFingerprintTest, DeterministicAcrossReadersAndWrites) {
  auto events = MakeEvents(200);
  std::string a = WriteAll(events, 32);
  std::string b = WriteAll(events, 32);
  EXPECT_EQ(a, b);  // writer is deterministic...
  RcFileReader ra(a), rb(b);
  auto fa = ra.ContentFingerprint();
  auto fb = rb.ContentFingerprint();
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(*fa, *fb);  // ...and so is the fingerprint
  // A second read of the same reader agrees.
  auto again = ra.ContentFingerprint();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *fa);
}

TEST(ContentFingerprintTest, ChangesWithContentAndGrouping) {
  auto events = MakeEvents(200);
  std::string base_body = WriteAll(events, 32);
  auto base_fp = RcFileReader(base_body).ContentFingerprint();
  ASSERT_TRUE(base_fp.ok());

  // One changed row changes the fingerprint.
  auto edited = events;
  edited[100].user_id += 1;
  auto edited_fp = RcFileReader(WriteAll(edited, 32)).ContentFingerprint();
  ASSERT_TRUE(edited_fp.ok());
  EXPECT_NE(*edited_fp, *base_fp);

  // One extra row changes the fingerprint.
  auto extended = events;
  extended.push_back(events[0]);
  auto ext_fp = RcFileReader(WriteAll(extended, 32)).ContentFingerprint();
  ASSERT_TRUE(ext_fp.ok());
  EXPECT_NE(*ext_fp, *base_fp);
}

TEST(ContentFingerprintTest, TruncatedBodyIsAnError) {
  auto events = MakeEvents(100);
  std::string body = WriteAll(events, 16);
  std::string truncated = body.substr(0, body.size() - 7);
  RcFileReader reader(truncated);
  EXPECT_FALSE(reader.ContentFingerprint().ok());
}

// ---------------------------------------------------------------------------
// scan_oracle::Matches, the row-at-a-time reference of a ScanSpec, must
// agree exactly with Scan(), whose groups select through SelectRows.

TEST(RowMatcherTest, AgreesWithScanOnEveryPredicateKind) {
  auto events = MakeEvents(120);
  std::string body = WriteAll(events, 16);

  std::vector<ScanSpec> specs;
  {
    ScanSpec s;
    s.min_timestamp = events[30].timestamp;
    s.max_timestamp = events[90].timestamp;
    specs.push_back(s);
  }
  {
    ScanSpec s;
    s.event_names = {events[5].event_name, events[6].event_name};
    specs.push_back(s);
  }
  {
    ScanSpec s;
    s.event_name_patterns = {"*action1", "web:*"};
    specs.push_back(s);
  }
  {
    ScanSpec s;
    s.user_ids = {1001, 1003, 1007};
    s.min_timestamp = events[10].timestamp;
    specs.push_back(s);
  }
  {
    ScanSpec s;  // empty allowlist: matches nothing
    s.event_names = std::set<std::string>{};
    specs.push_back(s);
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    ScanSpec spec = specs[i];
    spec.columns = kAllColumns;
    std::vector<events::ClientEvent> want;
    for (const auto& ev : events) {
      if (scan_oracle::Matches(spec, ev)) want.push_back(ev);
    }
    RcFileReader reader(body);
    std::vector<events::ClientEvent> got;
    ASSERT_TRUE(reader.Scan(spec, &got, nullptr).ok()) << i;
    EXPECT_EQ(got, want) << "spec " << i;
  }
}

// ---------------------------------------------------------------------------
// Background scrubber vs chaos-injected silent corruption

TEST(ScrubberTest, QuarantinesFlippedPartAndSparesHealthyOnes) {
  hdfs::MiniHdfs fs;
  auto events = MakeEvents(120);
  const std::string dir = "/logs/client_event/2012/08/21/00";
  ASSERT_TRUE(fs.WriteFile(dir + "/part-00000", WriteAll(events, 32)).ok());
  ASSERT_TRUE(fs.WriteFile(dir + "/part-00001", WriteAll(events, 16)).ok());
  ASSERT_TRUE(fs.WriteFile(dir + "/notes.txt", "not columnar").ok());
  // Chaos-style silent byte flip past the 4-byte magic: no mtime bump, no
  // error at write time — only the part's own checksums can catch it.
  ASSERT_TRUE(fs.CorruptFile(dir + "/part-00001", 100).ok());

  auto report = ScrubColumnarDir(&fs, "/logs");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_checked, 2u);
  EXPECT_EQ(report->files_skipped, 1u);  // notes.txt carries no checksums
  EXPECT_EQ(report->files_quarantined, 1u);
  EXPECT_EQ(report->rows_verified, events.size());
  ASSERT_EQ(report->quarantined.size(), 1u);
  EXPECT_EQ(report->quarantined[0], dir + "/_quarantined.part-00001");

  // The bad part is out of service under a hidden name; the healthy part
  // still reads clean in place.
  EXPECT_FALSE(fs.Exists(dir + "/part-00001"));
  ASSERT_TRUE(fs.Exists(dir + "/_quarantined.part-00001"));
  auto healthy = fs.ReadFile(dir + "/part-00000");
  ASSERT_TRUE(healthy.ok());
  RcFileReader reader(*healthy);
  std::vector<events::ClientEvent> back;
  EXPECT_TRUE(reader.ReadAll(kAllColumns, &back).ok());
  EXPECT_EQ(back.size(), events.size());

  // A second pass is idempotent: the quarantined part is hidden, the
  // healthy one re-verifies, nothing new is renamed.
  auto again = ScrubColumnarDir(&fs, "/logs");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->files_checked, 1u);
  EXPECT_EQ(again->files_quarantined, 0u);
  EXPECT_EQ(again->rows_verified, events.size());
}

TEST(ScrubberTest, BrownoutAbortsPassWithoutQuarantining) {
  hdfs::MiniHdfs fs;
  auto events = MakeEvents(40);
  const std::string part = "/logs/client_event/2012/08/21/00/part-00000";
  ASSERT_TRUE(fs.WriteFile(part, WriteAll(events, 16)).ok());
  ASSERT_TRUE(fs.CorruptFile(part, 50).ok());
  fs.SetDatanodeAvailable(0, false);

  // Reads fail during the brownout, so the pass aborts for a later retry
  // instead of mistaking darkness for corruption.
  auto report = ScrubColumnarDir(&fs, "/logs");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable()) << report.status().ToString();
  EXPECT_TRUE(fs.Exists(part));  // nothing renamed

  fs.SetDatanodeAvailable(0, true);
  auto retry = ScrubColumnarDir(&fs, "/logs");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->files_quarantined, 1u);
}

}  // namespace
}  // namespace unilog::columnar
