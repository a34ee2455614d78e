// Columnar warehouse landing against its frozen oracle
// (tests/landing_oracle.h): the in-place client-event parser, the row-group
// encoder under RcFileWriter, and the log mover's columnar parts and
// sidecar, over staged files mixed with broker batches, at every thread
// count. The oracle writes RCFile v2, which the reader does not read, and
// landing writes v3, so parts are compared with the rows the oracle landed,
// and group cuts and headers with those derived from the rows; the sidecar
// by bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/fleet.h"
#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/rng.h"
#include "events/client_event.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "landing_oracle.h"
#include "scribe/log_mover.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "thrift_oracle.h"
#include "zk/zookeeper.h"

namespace unilog::scribe {
namespace {

constexpr TimeMs kT0 = 1345507200000;  // 2012-08-21 00:00 UTC
constexpr char kCategory[] = "client_events";
constexpr char kHourDir[] = "/logs/client_events/2012/08/21/00";

using events::ClientEvent;
using thrift_oracle::TType;

// ---------------------------------------------------------------------------
// Message generators

ClientEvent RandomEvent(Rng& rng) {
  static const char* kNames[] = {
      "web:home:timeline:stream:tweet:impression",
      "web:home:timeline:stream:tweet:click",
      "iphone:profile:::follow",
      "android:search:results::query",
      "web:discover:::impression",
  };
  ClientEvent ev;
  ev.initiator = static_cast<events::EventInitiator>(rng.Uniform(4));
  ev.event_name = rng.Bernoulli(0.05)
                      ? "rare:" + std::to_string(rng.Uniform(100000))
                      : kNames[rng.Uniform(5)];
  ev.user_id = static_cast<int64_t>(rng.Uniform(5000)) - 20;
  ev.session_id = "s" + std::to_string(rng.Uniform(100000));
  ev.ip = "10.0." + std::to_string(rng.Uniform(256)) + ".1";
  ev.timestamp = kT0 + static_cast<TimeMs>(rng.Uniform(kMillisPerHour));
  const uint64_t details = rng.Uniform(4);
  for (uint64_t i = 0; i < details; ++i) {
    ev.details.emplace_back("k" + std::to_string(i),
                            std::string(rng.Uniform(12), 'v'));
  }
  return ev;
}

// Field 7 as a map<string,string> claiming 2^32 - 1 entries: 7 bytes.
std::string HostileMapCount() {
  return std::string("\x7b\xff\xff\xff\xff\x0f\x88", 7);
}

// An unknown field (id 20) holding `levels` nested struct headers.
std::string HostileNesting(size_t levels) {
  std::string m("\x0c\x28", 2);
  m.append(levels, '\x1c');
  return m;
}

// Hand-written messages the generated serializer never produces: repeated
// fields (the last wins), unknown fields of every shape (skipped) and a
// repeated details map (the later one replaces the earlier).
std::string OddButValid(Rng& rng) {
  std::string out;
  thrift_oracle::Writer w(&out);
  w.BeginStruct();
  switch (rng.Uniform(3)) {
    case 0:  // duplicate fields, out of order
      w.WriteStringField(ClientEvent::kFieldEventName, "first:name");
      w.WriteI64Field(ClientEvent::kFieldUserId, 7);
      w.WriteStringField(ClientEvent::kFieldEventName, "web:dup:::name");
      w.WriteI32Field(ClientEvent::kFieldInitiator, 2);
      w.WriteI64Field(ClientEvent::kFieldUserId,
                      static_cast<int64_t>(rng.Uniform(100)));
      w.WriteI64Field(ClientEvent::kFieldTimestamp, kT0 + 5);
      break;
    case 1:  // unknown fields between known ones
      w.WriteI32Field(ClientEvent::kFieldInitiator, 1);
      w.WriteStringField(ClientEvent::kFieldEventName, "web:unknown:::x");
      w.WriteBoolField(8, true);
      w.WriteStringField(9, "from a newer producer");
      w.WriteListFieldHeader(10, TType::kI32, 3);
      w.WriteI32(1);
      w.WriteI32(2);
      w.WriteI32(3);
      w.WriteStructFieldHeader(11);
      w.BeginStruct();
      w.WriteDoubleField(1, 2.5);
      w.WriteMapFieldHeader(2, TType::kString, TType::kI64, 1);
      w.WriteString("n");
      w.WriteI64(4);
      w.EndStruct();
      w.WriteI64Field(ClientEvent::kFieldTimestamp, kT0 + 9);
      break;
    default:  // repeated details map, then an empty one for half of them
      w.WriteStringField(ClientEvent::kFieldEventName, "web:details:::x");
      w.WriteMapFieldHeader(ClientEvent::kFieldEventDetails, TType::kString,
                            TType::kString, 2);
      w.WriteString("a");
      w.WriteString("1");
      w.WriteString("b");
      w.WriteString("2");
      w.WriteStringField(ClientEvent::kFieldIp, "10.9.9.9");
      if (rng.Bernoulli(0.5)) {
        w.WriteMapFieldHeader(ClientEvent::kFieldEventDetails,
                              TType::kString, TType::kString, 0);
      } else {
        w.WriteMapFieldHeader(ClientEvent::kFieldEventDetails,
                              TType::kString, TType::kString, 1);
        w.WriteString("c");
        w.WriteString("3");
      }
      break;
  }
  w.EndStruct();
  return out;
}

std::string Garbage(Rng& rng) {
  std::string m(rng.Uniform(40), '\0');
  for (char& c : m) c = static_cast<char>(rng.Uniform(256));
  return m;
}

// `rows` messages that parse plus interleaved ones that do not (garbage
// and both hostile repros), in a seeded order.
std::vector<std::string> MixedMessages(Rng& rng, size_t rows) {
  std::vector<std::string> out;
  size_t parsed = 0;
  while (parsed < rows) {
    const uint64_t kind = rng.Uniform(100);
    if (kind < 3) {
      out.push_back(Garbage(rng));
    } else if (kind < 4) {
      out.push_back(HostileMapCount());
    } else if (kind < 5) {
      out.push_back(HostileNesting(1000));
    } else {
      out.push_back(kind < 12 ? OddButValid(rng) : RandomEvent(rng).Serialize());
      ++parsed;
    }
    // Garbage can parse by accident; keep the parsed count exact.
    if (kind < 3 && landing_oracle::Deserialize(out.back()).ok()) ++parsed;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The mover over staged files plus broker batches

struct LandingCase {
  size_t rows = 0;
  uint64_t target_file_bytes = 8 * 1024 * 1024;
  int threads = 0;  // 0: no executor
  uint64_t seed = 1;
};

struct Landed {
  std::map<std::string, std::string> parts;  // path -> bytes
  LogMoverStats stats;
  std::vector<std::string> merged;  // what the oracle lands
};

broker::ProduceBatchRequest Request(uint64_t first_seq,
                                    const std::vector<std::string>& payloads,
                                    TimeMs logged_at, bool compressed) {
  broker::ProduceBatchRequest req;
  req.first_seq = first_seq;
  req.count = static_cast<uint32_t>(payloads.size());
  std::string body;
  for (const std::string& p : payloads) {
    broker::AppendBatchFrame(&body, logged_at, p);
    req.record_sizes.push_back(static_cast<uint32_t>(p.size()));
  }
  req.body = compressed ? Lz::Compress(body) : std::move(body);
  req.compressed = compressed;
  return req;
}

// Stages the first third of the messages as files, then produces the rest
// to two partitions in compressed and uncompressed batches. Half the
// batches are resent with an overlapping head, which the leader keeps as
// a skip_frames slice of the resent body.
Landed RunLanding(const LandingCase& c) {
  Rng rng(c.seed);
  std::vector<std::string> messages = MixedMessages(rng, c.rows);

  Simulator sim(kT0);
  zk::ZooKeeper zk(&sim);
  hdfs::MiniHdfs staging(&sim), warehouse(&sim);
  broker::BrokerOptions bopts;
  bopts.num_partitions = 2;
  bopts.replication_factor = 1;
  broker::BrokerFleet fleet(&sim, &zk, "dc1", {"brk0", "brk1"}, bopts);
  EXPECT_TRUE(fleet.Start().ok());
  EXPECT_TRUE(fleet.EnsureTopic(kCategory).ok());

  Landed out;
  const size_t staged_count = messages.size() / 3;
  for (size_t begin = 0, f = 0; begin < staged_count; ++f) {
    const size_t end = std::min(staged_count, begin + 1 + rng.Uniform(300));
    std::vector<std::string> file(messages.begin() + begin,
                                  messages.begin() + end);
    std::string path = "/staging/client_events/2012/08/21/00/f" +
                       std::string(f < 10 ? "0" : "") + std::to_string(f);
    EXPECT_TRUE(staging.WriteFile(path, Lz::Compress(FrameMessages(file))).ok());
    out.merged.insert(out.merged.end(), file.begin(), file.end());
    begin = end;
  }

  sim.RunUntil(kT0 + kMillisPerMinute);
  std::vector<std::string> per_partition[2];
  uint64_t next_seq[2] = {1, 1};  // producer seqs start at 1
  size_t batch_index = 0;
  for (size_t begin = staged_count; begin < messages.size(); ++batch_index) {
    const int p = static_cast<int>(batch_index % 2);
    const size_t end =
        std::min(messages.size(), begin + 1 + rng.Uniform(200));
    std::vector<std::string> payloads(messages.begin() + begin,
                                      messages.begin() + end);
    // Resend the previous batch's last `overlap` records at the head.
    uint64_t first_seq = next_seq[p];
    const size_t overlap = batch_index % 4 >= 2
                               ? std::min<size_t>(per_partition[p].size(), 3)
                               : 0;
    std::vector<std::string> sent(per_partition[p].end() - overlap,
                                  per_partition[p].end());
    sent.insert(sent.end(), payloads.begin(), payloads.end());
    first_seq -= overlap;
    broker::BrokerNode* leader = fleet.FindLeader(kCategory, p);
    EXPECT_NE(leader, nullptr);
    if (leader == nullptr) return out;
    broker::ProduceAck ack;
    Status st = leader->ProduceBatch(
        kCategory, p, "host" + std::to_string(p),
        Request(first_seq, sent, sim.Now(), batch_index % 3 != 1), &ack);
    EXPECT_TRUE(st.ok()) << st.ToString();
    per_partition[p].insert(per_partition[p].end(), payloads.begin(),
                            payloads.end());
    next_seq[p] += payloads.size();
    begin = end;
  }
  for (const auto& records : per_partition) {
    out.merged.insert(out.merged.end(), records.begin(), records.end());
  }

  std::unique_ptr<exec::Executor> executor;
  if (c.threads > 0) {
    executor = std::make_unique<exec::Executor>(
        exec::ExecOptions{.threads = c.threads});
  }
  std::vector<Aggregator*> none;
  LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  mopts.target_file_bytes = c.target_file_bytes;
  mopts.columnar_categories = {kCategory};
  mopts.executor = executor.get();
  LogMover mover(&sim, {DatacenterHandle{"dc1", &staging, &none, &fleet}},
                 &warehouse, mopts);
  mover.Start(kT0);
  sim.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);
  out.stats = mover.stats();
  auto files = warehouse.ListRecursive(kHourDir);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  if (files.ok()) {
    for (const auto& f : *files) {
      auto body = warehouse.ReadFile(f.path);
      EXPECT_TRUE(body.ok());
      if (body.ok()) out.parts[f.path] = *body;
    }
  }
  return out;
}

// Every row of the RCFile bodies `parts`, in order; the row count of each
// part is appended to `rows_per_part`.
std::vector<ClientEvent> ReadParts(const std::vector<std::string>& parts,
                                   std::vector<size_t>* rows_per_part) {
  std::vector<ClientEvent> rows;
  for (const std::string& part : parts) {
    const size_t before = rows.size();
    Status st =
        columnar::RcFileReader(part).ReadAll(columnar::kAllColumns, &rows);
    EXPECT_TRUE(st.ok()) << st.ToString();
    rows_per_part->push_back(rows.size() - before);
  }
  return rows;
}

// The mover lands v3 parts while the frozen oracle writes v2, so bytes are
// compared through the format: the mover's rows equal the rows the oracle
// landed, in order, each part is exactly RcFileWriter over its rows
// (groups of 1024 rows, or of one row at a zero target), parts are cut by
// the size rule, and the sidecar is byte-identical. Where the cut cannot depend on group
// sizes — every group its own part (targets 0 and 1) or one part for the
// hour (8 MiB) — the part counts match the oracle's too.
void ExpectMatchesOracle(const LandingCase& c) {
  SCOPED_TRACE("rows=" + std::to_string(c.rows) + " target=" +
               std::to_string(c.target_file_bytes) +
               " threads=" + std::to_string(c.threads));
  Landed landed = RunLanding(c);
  const landing_oracle::Landing oracle =
      landing_oracle::LandColumnar(landed.merged, c.target_file_bytes);
  const bool sidecar = oracle.parse_fallbacks > 0;
  std::vector<std::string> got_parts;  // path order is part order
  for (const auto& [path, bytes] : landed.parts) got_parts.push_back(bytes);
  std::vector<std::string> want_parts = oracle.parts;
  ASSERT_GE(got_parts.size(), sidecar ? 2u : 1u);
  if (sidecar) {
    EXPECT_TRUE(got_parts.back() == want_parts.back())
        << "the sidecar differs from the oracle's";
    got_parts.pop_back();
    want_parts.pop_back();
  }
  if (c.target_file_bytes <= 1 || c.target_file_bytes >= (8u << 20)) {
    EXPECT_EQ(got_parts.size(), want_parts.size());
  }

  std::vector<size_t> rows_per_part;
  const std::vector<ClientEvent> rows = ReadParts(got_parts, &rows_per_part);
  EXPECT_TRUE(rows == oracle.rows) << "landed rows differ from the oracle's";
  const size_t group_rows =
      c.target_file_bytes == 0 ? 1 : columnar::kDefaultRowsPerGroup;
  size_t next = 0;
  for (size_t p = 0; p < got_parts.size(); ++p) {
    std::string want;
    columnar::RcFileWriter writer(&want, group_rows);
    for (size_t r = 0; r < rows_per_part[p] && next < rows.size(); ++r) {
      ASSERT_TRUE(writer.Add(rows[next++]).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_TRUE(got_parts[p] == want)
        << "part " << p << " is not RcFileWriter over its rows";
    // A part ends after the first group that takes it to the target.
    auto groups = columnar::RcFileReader(got_parts[p]).IndexGroups();
    ASSERT_TRUE(groups.ok());
    if (groups->size() > 1) {
      EXPECT_LT(groups->back().offset, c.target_file_bytes)
          << "part " << p << " should have ended a group earlier";
    }
    if (p + 1 < got_parts.size()) {
      EXPECT_GE(got_parts[p].size(), c.target_file_bytes) << "part " << p;
    }
  }
  EXPECT_EQ(next, rows.size());
  EXPECT_EQ(landed.stats.messages_moved, landed.merged.size());
  EXPECT_EQ(landed.stats.columnar_parse_fallbacks, oracle.parse_fallbacks);
  EXPECT_EQ(landed.stats.columnar_files_written, got_parts.size());
  EXPECT_GT(landed.stats.broker_batches_decoded, 0u);
}

TEST(ColumnarLandingOracleTest, MoverMatchesFrozenLandingAcrossShapes) {
  uint64_t seed = 1;
  for (size_t rows : {1023u, 1024u, 1025u, 2049u}) {
    // One part; a cut after every group; a cut after every other group or
    // so (each 1024-row group here compresses to roughly 14-20 KiB).
    for (uint64_t target : {uint64_t{8} << 20, uint64_t{1}, uint64_t{30000}}) {
      for (int threads : {0, 2, 4}) {
        ExpectMatchesOracle(LandingCase{rows, target, threads, seed++});
      }
    }
  }
}

TEST(ColumnarLandingOracleTest, ZeroTargetCutsAPartPerRow) {
  for (int threads : {0, 2}) {
    ExpectMatchesOracle(LandingCase{37, 0, threads, 99});
  }
}

TEST(ColumnarLandingOracleTest, HostileMessagesLandInTheSidecar) {
  Simulator sim(kT0);
  hdfs::MiniHdfs staging(&sim), warehouse(&sim);
  Rng rng(5);
  std::vector<std::string> messages = {RandomEvent(rng).Serialize(),
                                       HostileMapCount(),
                                       HostileNesting(100000),
                                       RandomEvent(rng).Serialize()};
  ASSERT_TRUE(staging
                  .WriteFile("/staging/client_events/2012/08/21/00/f0",
                             Lz::Compress(FrameMessages(messages)))
                  .ok());
  std::vector<Aggregator*> none;
  LogMoverOptions mopts;
  mopts.columnar_categories = {kCategory};
  LogMover mover(&sim, {DatacenterHandle{"dc1", &staging, &none}}, &warehouse,
                 mopts);
  mover.Start(kT0);
  sim.RunUntil(kT0 + kMillisPerHour + 10 * kMillisPerMinute);
  ASSERT_EQ(mover.stats().hours_moved, 1u);
  EXPECT_EQ(mover.stats().messages_moved, 4u);
  EXPECT_EQ(mover.stats().columnar_parse_fallbacks, 2u);

  auto sidecar = warehouse.ReadFile(std::string(kHourDir) + "/part-00001");
  ASSERT_TRUE(sidecar.ok());
  auto raw = Lz::Decompress(*sidecar);
  ASSERT_TRUE(raw.ok());
  auto kept = UnframeMessages(*raw);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, (std::vector<std::string>{messages[1], messages[2]}));
}

// ---------------------------------------------------------------------------
// The encoder under RcFileWriter against the row-at-a-time writer

// The group headers a row-at-a-time writer gives `events` cut every
// `rows_per_group` rows: row counts, zone maps, and both dictionaries in
// first-appearance order.
std::vector<columnar::RcFileReader::RowGroupStats> ExpectedGroups(
    const std::vector<ClientEvent>& events, size_t rows_per_group) {
  std::vector<columnar::RcFileReader::RowGroupStats> groups;
  for (size_t begin = 0; begin < events.size(); begin += rows_per_group) {
    const size_t end = std::min(events.size(), begin + rows_per_group);
    columnar::RcFileReader::RowGroupStats g;
    g.row_count = end - begin;
    g.min_timestamp = g.max_timestamp = events[begin].timestamp;
    g.min_user_id = g.max_user_id = events[begin].user_id;
    for (size_t r = begin; r < end; ++r) {
      const ClientEvent& ev = events[r];
      g.min_timestamp = std::min<int64_t>(g.min_timestamp, ev.timestamp);
      g.max_timestamp = std::max<int64_t>(g.max_timestamp, ev.timestamp);
      g.min_user_id = std::min(g.min_user_id, ev.user_id);
      g.max_user_id = std::max(g.max_user_id, ev.user_id);
      if (std::find(g.event_names.begin(), g.event_names.end(),
                    ev.event_name) == g.event_names.end()) {
        g.event_names.push_back(ev.event_name);
      }
      const std::string init(events::EventInitiatorName(ev.initiator));
      if (std::find(g.initiators.begin(), g.initiators.end(), init) ==
          g.initiators.end()) {
        g.initiators.push_back(init);
      }
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

// The body `got` that RcFileWriter wrote for `events`: the group cuts and
// headers (zone maps, both dictionaries) derived from the rows, and `got`
// reads back as `events`.
void ExpectSameGroupsAndRows(const std::string& got,
                             const std::vector<ClientEvent>& events,
                             size_t rows_per_group) {
  auto got_groups = columnar::RcFileReader(got).CollectGroupStats();
  ASSERT_TRUE(got_groups.ok()) << got_groups.status().ToString();
  const auto want_groups = ExpectedGroups(events, rows_per_group);
  ASSERT_EQ(got_groups->size(), want_groups.size());
  for (size_t g = 0; g < got_groups->size(); ++g) {
    const auto& a = (*got_groups)[g];
    const auto& b = want_groups[g];
    EXPECT_EQ(a.row_count, b.row_count) << "group " << g;
    EXPECT_EQ(a.min_timestamp, b.min_timestamp) << "group " << g;
    EXPECT_EQ(a.max_timestamp, b.max_timestamp) << "group " << g;
    EXPECT_EQ(a.min_user_id, b.min_user_id) << "group " << g;
    EXPECT_EQ(a.max_user_id, b.max_user_id) << "group " << g;
    EXPECT_EQ(a.event_names, b.event_names) << "group " << g;
    EXPECT_EQ(a.initiators, b.initiators) << "group " << g;
  }
  std::vector<ClientEvent> back;
  ASSERT_TRUE(
      columnar::RcFileReader(got).ReadAll(columnar::kAllColumns, &back).ok());
  EXPECT_TRUE(back == events);
}

TEST(ColumnarLandingOracleTest, WriterMatchesRowAtATimeWriter) {
  Rng rng(11);
  for (size_t rows_per_group : {1u, 3u, 1024u}) {
    for (size_t rows : {0u, 1u, 1023u, 1024u, 1025u, 2049u}) {
      SCOPED_TRACE("rows_per_group " + std::to_string(rows_per_group) +
                   " rows " + std::to_string(rows));
      std::string got;
      columnar::RcFileWriter writer(&got, rows_per_group);
      std::vector<ClientEvent> events;
      for (size_t i = 0; i < rows; ++i) {
        events.push_back(RandomEvent(rng));
        ASSERT_TRUE(writer.Add(events.back()).ok());
      }
      ASSERT_TRUE(writer.Finish().ok());
      ExpectSameGroupsAndRows(got, events, rows_per_group);
    }
  }
}

// One writer over many groups with thousands of distinct names: codes
// restart per group, in first-appearance order.
TEST(ColumnarLandingOracleTest, WriterMatchesOracleAcrossNameCacheResets) {
  Rng rng(12);
  std::string got;
  columnar::RcFileWriter writer(&got, 256);
  std::vector<ClientEvent> events;
  for (int i = 0; i < 12000; ++i) {
    ClientEvent ev = RandomEvent(rng);
    if (i % 2 == 0) ev.event_name = "n" + std::to_string(i % 5000);
    ASSERT_TRUE(writer.Add(ev).ok());
    events.push_back(std::move(ev));
  }
  ASSERT_TRUE(writer.Finish().ok());
  ExpectSameGroupsAndRows(got, events, 256);
}

// ---------------------------------------------------------------------------
// The view parser against the frozen owning parser

void ExpectSameVerdict(const std::string& m) {
  auto want = landing_oracle::Deserialize(m);
  std::vector<events::DetailView> arena = {{"keep", "me"}};
  events::ClientEventView view;
  Status st = events::ReadClientEventBody(m, &view, &arena);
  ASSERT_EQ(st.ok(), want.ok()) << st.ToString();
  auto got = ClientEvent::Deserialize(m);
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    // A failed parse leaves the arena as it was.
    EXPECT_EQ(arena.size(), 1u);
    return;
  }
  EXPECT_EQ(view.details_begin, 1u);
  EXPECT_EQ(ClientEvent::Materialize(view, view.details(arena)), *want);
  EXPECT_EQ(*got, *want);
}

TEST(ColumnarLandingOracleTest, ViewParserAcceptsExactlyWhatOracleAccepts) {
  Rng rng(2012);
  std::vector<std::string> seeds;
  for (int i = 0; i < 40; ++i) seeds.push_back(RandomEvent(rng).Serialize());
  for (int i = 0; i < 40; ++i) seeds.push_back(OddButValid(rng));
  seeds.push_back(HostileMapCount());
  seeds.push_back(HostileNesting(70));
  uint64_t accepted = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string m = seeds[rng.Uniform(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const size_t pos = rng.Uniform(m.size());
      switch (rng.Uniform(5)) {
        case 0:  // flip a byte
          m[pos] = static_cast<char>(m[pos] ^ (1u << rng.Uniform(8)));
          break;
        case 1:  // truncate
          m.resize(pos);
          break;
        case 2:  // insert a random byte
          m.insert(m.begin() + pos, static_cast<char>(rng.Uniform(256)));
          break;
        case 3:  // duplicate a slice (repeats fields)
          m.insert(pos, m.substr(pos, rng.Uniform(12)));
          break;
        default:  // drop a slice
          m.erase(pos, rng.Uniform(6));
          break;
      }
    }
    ExpectSameVerdict(m);
    if (HasFatalFailure()) return;
    (landing_oracle::Deserialize(m).ok() ? accepted : rejected)++;
  }
  // The mutations reach both verdicts often.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace unilog::scribe
