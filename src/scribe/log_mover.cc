#include "scribe/log_mover.h"

#include <algorithm>

#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/strings.h"
#include "etwin/index.h"
#include "events/client_event.h"
#include "scribe/message.h"

namespace unilog::scribe {

namespace {

/// Messages inside one staged file, best effort: unreadable or corrupt
/// files count as zero (their content cannot be attributed).
uint64_t CountEntriesInFile(hdfs::MiniHdfs* staging, const std::string& path) {
  auto body = staging->ReadFile(path);
  if (!body.ok()) return 0;
  auto raw = Lz::Decompress(*body);
  if (!raw.ok()) return 0;
  auto count = CountFramed(*raw);
  return count.ok() ? *count : 0;
}

/// Parses the hour out of a staged file path
/// (/staging/<category>/YYYY/MM/DD/HH/<file>); false if malformed.
bool ParseStagedHour(const std::string& path, std::string* category,
                     TimeMs* hour) {
  std::vector<std::string> parts = Split(path.substr(1), '/');
  if (parts.size() < 7 || parts[0] != "staging") return false;
  CivilTime civil;
  auto parse_int = [](const std::string& s, int* out) {
    if (s.empty()) return false;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
    }
    *out = std::stoi(s);
    return true;
  };
  if (!parse_int(parts[2], &civil.year) || !parse_int(parts[3], &civil.month) ||
      !parse_int(parts[4], &civil.day) || !parse_int(parts[5], &civil.hour)) {
    return false;
  }
  *category = parts[1];
  *hour = FromCivil(civil);
  return true;
}

}  // namespace

LogMover::LogMover(Simulator* sim, std::vector<DatacenterHandle> datacenters,
                   hdfs::MiniHdfs* warehouse, LogMoverOptions options,
                   obs::MetricsRegistry* metrics)
    : sim_(sim),
      datacenters_(std::move(datacenters)),
      warehouse_(warehouse),
      options_(options),
      exec_(exec::OrInline(options.executor)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(sim_);
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  hours_moved_ = metrics->GetCounter("mover.hours_moved");
  categories_moved_ = metrics->GetCounter("mover.categories_moved");
  staging_files_read_ = metrics->GetCounter("mover.staging_files_read");
  warehouse_files_written_ =
      metrics->GetCounter("mover.warehouse_files_written");
  messages_moved_ = metrics->GetCounter("mover.messages_moved");
  corrupt_files_skipped_ =
      metrics->GetCounter("mover.corrupt_files_skipped");
  barrier_stalls_ = metrics->GetCounter("mover.barrier_stalls");
  move_retries_ = metrics->GetCounter("mover.move_retries");
  late_files_dropped_ = metrics->GetCounter("mover.late_files_dropped");
  late_entries_dropped_ = metrics->GetCounter("mover.late_entries_dropped");
  columnar_files_written_ =
      metrics->GetCounter("mover.columnar_files_written");
  columnar_parse_fallbacks_ =
      metrics->GetCounter("mover.columnar_parse_fallbacks");
  broker_batches_decoded_ =
      metrics->GetCounter("mover.broker_batches_decoded");
  warehouse_file_bytes_ = metrics->GetHistogram("mover.warehouse_file_bytes");
  broker_e2e_latency_ = metrics->GetHistogram("broker.e2e_latency_ms");
  hour_slide_latency_ =
      metrics->GetHistogram("mover.hour_slide_latency_ms");
}

LogMoverStats LogMover::stats() const {
  LogMoverStats s;
  s.hours_moved = hours_moved_->value();
  s.categories_moved = categories_moved_->value();
  s.staging_files_read = staging_files_read_->value();
  s.warehouse_files_written = warehouse_files_written_->value();
  s.messages_moved = messages_moved_->value();
  s.corrupt_files_skipped = corrupt_files_skipped_->value();
  s.barrier_stalls = barrier_stalls_->value();
  s.move_retries = move_retries_->value();
  s.late_files_dropped = late_files_dropped_->value();
  s.late_entries_dropped = late_entries_dropped_->value();
  s.columnar_files_written = columnar_files_written_->value();
  s.columnar_parse_fallbacks = columnar_parse_fallbacks_->value();
  s.broker_batches_decoded = broker_batches_decoded_->value();
  return s;
}

void LogMover::Start(TimeMs start_hour) {
  if (started_) return;
  started_ = true;
  next_hour_ = TruncateToHour(start_hour);
  sim_->Every(options_.run_interval_ms, [this] {
    RunOnce();
    return true;
  });
}

void LogMover::RunOnce() {
  while (HourClosed(next_hour_)) {
    if (!AggregatorsFlushed(next_hour_)) {
      // A datacenter still holds data for the closed hour: this — and
      // only this — is a barrier stall.
      barrier_stalls_->Increment();
      break;
    }
    if (!MoveHour(next_hour_)) {
      // The move itself failed (e.g. warehouse outage): retry this hour
      // next run.
      move_retries_->Increment();
      break;
    }
    hours_moved_->Increment();
    hour_slide_latency_->Observe(
        static_cast<double>(sim_->Now() - (next_hour_ + kMillisPerHour)));
    next_hour_ += kMillisPerHour;
  }
  SweepLateStaging();
}

bool LogMover::HourClosed(TimeMs hour) const {
  // Hour must be closed (plus grace).
  return sim_->Now() >= hour + kMillisPerHour + options_.grace_ms;
}

bool LogMover::AggregatorsFlushed(TimeMs hour) const {
  // Every live aggregator in every datacenter must have flushed everything
  // up to and including this hour ("it ensures that by the time logs are
  // made available... all datacenters that produce a given log category
  // have transferred their logs", §2).
  for (const auto& dc : datacenters_) {
    if (dc.aggregators == nullptr) continue;  // broker-only datacenter
    for (const Aggregator* agg : *dc.aggregators) {
      if (agg->alive() && agg->UnflushedWatermark() <= hour) return false;
    }
  }
  return true;
}

bool LogMover::MoveHour(TimeMs hour) {
  // Discover the categories with staged data for this hour in any DC.
  std::set<std::string> categories;
  for (const auto& dc : datacenters_) {
    auto ls = dc.staging->List("/staging");
    if (!ls.ok()) {
      if (ls.status().IsNotFound()) continue;  // nothing staged yet
      return false;                            // staging outage: retry
    }
    std::string hour_fragment = HourPartitionPath(hour);
    for (const auto& entry : *ls) {
      std::string category = entry.path.substr(std::string("/staging/").size());
      if (dc.staging->Exists("/staging/" + category + "/" + hour_fragment)) {
        categories.insert(category);
      }
    }
  }
  // Broker topics, per datacenter. The same category can arrive on both
  // tiers at once — a fleet mid-migration runs brokers in some DCs and
  // aggregator chains in the rest — so both sources must merge into ONE
  // hour commit per category below: the slid hour directory is immutable,
  // and a second source committed after the first would be silently lost.
  std::vector<std::set<std::string>> fleet_topics(datacenters_.size());
  for (size_t i = 0; i < datacenters_.size(); ++i) {
    if (datacenters_[i].fleet == nullptr) continue;
    auto listed = datacenters_[i].fleet->ListTopics();
    if (!listed.ok()) {
      if (listed.status().IsNotFound()) continue;  // no topics yet
      return false;
    }
    fleet_topics[i].insert(listed->begin(), listed->end());
    categories.insert(listed->begin(), listed->end());
  }
  for (const auto& category : categories) {
    Status st = MoveCategoryHour(category, hour, fleet_topics);
    if (!st.ok()) return false;  // e.g. warehouse outage: retry whole hour
    categories_moved_->Increment();
  }
  return true;
}

Status LogMover::MoveCategoryHour(
    const std::string& category, TimeMs hour,
    const std::vector<std::set<std::string>>& fleet_topics) {
  std::string hour_fragment = HourPartitionPath(hour);
  std::string final_dir = "/logs/" + category + "/" + hour_fragment;

  // 0. Fetch this category's broker records from every fleet carrying the
  //    topic, from the group's committed offset up to the hour close. A
  //    leaderless partition stalls the hour — backpressure holds the data
  //    at the producers and the hour is retried next run. Offsets are
  //    committed only after the warehouse slide (step 5).
  struct PendingCommit {
    broker::BrokerFleet* fleet;
    int partition;
    uint64_t next_offset;
    uint64_t records;
    uint64_t bytes;
  };
  std::vector<PendingCommit> commits;
  // Batches arrive opaque (still compressed) from the leaders; each
  // remembers which pending commit its records belong to.
  struct FetchedBatch {
    size_t commit_idx;
    broker::Batch batch;
  };
  std::vector<FetchedBatch> fetched;
  TimeMs close = hour + kMillisPerHour;
  for (size_t i = 0; i < datacenters_.size(); ++i) {
    broker::BrokerFleet* fleet = datacenters_[i].fleet;
    if (fleet == nullptr || fleet_topics[i].count(category) == 0) continue;
    for (int p = 0; p < fleet->options().num_partitions; ++p) {
      uint64_t from =
          fleet->CommittedOffset(options_.consumer_group, category, p);
      broker::BrokerNode* leader = fleet->FindLeader(category, p);
      if (leader == nullptr) {
        return Status::Unavailable("leaderless partition: " + category + "/" +
                                   std::to_string(p));
      }
      auto read = leader->ConsumerFetch(category, p, from, close);
      if (!read.ok()) return read.status();
      if (read->next_offset > from) {
        size_t idx = commits.size();
        commits.push_back(PendingCommit{fleet, p, read->next_offset,
                                        read->record_count, 0});
        for (auto& b : read->batches) {
          fetched.push_back(FetchedBatch{idx, std::move(b)});
        }
      }
    }
  }

  // 0b. Decode the fetched batches into frame views — warehouse landing
  //     is the one place the delivery path decompresses, so it rides the
  //     same exec fan-out as the per-file unstage, in contiguous chunks of
  //     batches (most batches hold a record or two). The merge below walks
  //     the chunks in fetch order, so the merged hour is byte-identical at
  //     any thread count. The views point into each chunk's decompressed
  //     bodies (or a fetched batch's own uncompressed one), which live
  //     until this hour is committed.
  struct DecodedChunk {
    std::vector<std::string> bodies;  // reserved up front: never moved
    std::vector<broker::FrameView> frames;
    bool failed = false;
  };
  std::vector<DecodedChunk> decoded(exec_->ChunksFor(fetched.size()));
  std::vector<uint64_t> batch_bytes(fetched.size(), 0);
  exec_->ParallelForChunked(
      "mover.decode_batches", fetched.size(),
      [&](size_t c, size_t begin, size_t end) {
        DecodedChunk& chunk = decoded[c];
        chunk.bodies.reserve(end - begin);
        size_t records = 0;
        for (size_t i = begin; i < end; ++i) records += fetched[i].batch.count;
        chunk.frames.reserve(records);
        for (size_t i = begin; i < end; ++i) {
          const size_t first = chunk.frames.size();
          if (!broker::DecodeBatchFrames(fetched[i].batch,
                                         &chunk.bodies.emplace_back(),
                                         &chunk.frames)
                   .ok()) {
            chunk.failed = true;
            return;
          }
          for (size_t f = first; f < chunk.frames.size(); ++f) {
            batch_bytes[i] += chunk.frames[f].payload.size();
          }
        }
      });
  size_t broker_records = 0;
  for (const DecodedChunk& chunk : decoded) {
    if (chunk.failed) {
      return Status::Corruption("broker batch decode failed: " + category);
    }
    broker_records += chunk.frames.size();
  }
  broker_batches_decoded_->Increment(fetched.size());
  // Consumed-byte accounting stays in uncompressed terms, matching the
  // produce side of the audit identity.
  for (size_t i = 0; i < fetched.size(); ++i) {
    commits[fetched[i].commit_idx].bytes += batch_bytes[i];
  }

  if (warehouse_->Exists(final_dir)) {
    // The hour is already in the warehouse (a previous attempt slid it
    // before a later step — another category, an offset commit — forced a
    // retry, or an aggregator staged a straggler file after the slide). A
    // slid hour is immutable, so whatever sits in staging now is late
    // data: drop it and account the loss — leaving it would leak staged
    // files forever with the loss uncounted. Broker records re-fetched
    // from the committed offset were part of that slide (anything produced
    // after it carries logged_at past the hour close and stays out of this
    // fetch), so only their offsets still need persisting below.
    UNILOG_RETURN_NOT_OK(DropLateStaging(category, hour));
  } else {
    // 1. Collect the staged file bodies across datacenters in stable order
    //    (datacenter order, then listing order). I/O stays on this thread —
    //    MiniHdfs and its metrics are single-threaded by design.
    std::vector<std::string> staged_bodies;
    for (const auto& dc : datacenters_) {
      std::string dir = "/staging/" + category + "/" + hour_fragment;
      if (!dc.staging->Exists(dir)) continue;
      auto files = dc.staging->ListRecursive(dir);
      if (!files.ok()) return files.status();
      for (const auto& file : *files) {
        auto body = dc.staging->ReadFile(file.path);
        if (!body.ok()) return body.status();
        staged_bodies.push_back(std::move(*body));
      }
    }

    // 2. Sanity-check (decompress + unframe) every file, fanned out across
    //    exec workers: each slot is written only by its own index, and the
    //    merge below walks slots in input order, so the merged message list
    //    is the same at any thread count. Ordering within an hour is
    //    unspecified (§2: "the ordering of messages within each file is
    //    unspecified"), so concatenation per datacenter/file order is
    //    faithful.
    struct FileSlot {
      bool corrupt = false;
      std::string raw;
      std::vector<std::string_view> messages;  // views into raw
    };
    std::vector<FileSlot> slots(staged_bodies.size());
    exec_->ParallelFor("mover.unstage", staged_bodies.size(), [&](size_t i) {
      FileSlot& slot = slots[i];
      auto raw = Lz::Decompress(staged_bodies[i]);
      // A corrupt file is skipped, not fatal.
      if (!raw.ok()) {
        slot.corrupt = true;
        return;
      }
      slot.raw = std::move(*raw);
      slot.corrupt = !UnframeMessageViews(slot.raw, &slot.messages).ok();
    });

    // Message views into the unstaged files and the decoded batches.
    std::vector<std::string_view> merged;
    for (const FileSlot& slot : slots) {
      if (slot.corrupt) {
        corrupt_files_skipped_->Increment();
        continue;
      }
      staging_files_read_->Increment();
      merged.insert(merged.end(), slot.messages.begin(), slot.messages.end());
    }
    // 3. Broker records join the same merged hour, after the staged files.
    merged.reserve(merged.size() + broker_records);
    for (const DecodedChunk& chunk : decoded) {
      for (const broker::FrameView& f : chunk.frames) {
        merged.push_back(f.payload);
      }
    }
    if (!merged.empty()) {
      UNILOG_RETURN_NOT_OK(CommitMergedHour(category, hour, merged));
    }

    // 4. Clean up staging.
    for (const auto& dc : datacenters_) {
      std::string dir = "/staging/" + category + "/" + hour_fragment;
      if (dc.staging->Exists(dir)) {
        UNILOG_RETURN_NOT_OK(dc.staging->Delete(dir, /*recursive=*/true));
      }
    }
  }

  // 5. Persist the consumer group's progress; the fleet counts the
  //    consumption and lets leaders trim below the group minimum.
  for (const auto& c : commits) {
    UNILOG_RETURN_NOT_OK(c.fleet->CommitOffset(options_.consumer_group,
                                               category, c.partition,
                                               c.next_offset, c.records,
                                               c.bytes));
  }
  for (const DecodedChunk& chunk : decoded) {
    for (const broker::FrameView& f : chunk.frames) {
      broker_e2e_latency_->Observe(
          static_cast<double>(sim_->Now() - f.logged_at));
    }
  }
  return Status::OK();
}

Status LogMover::CommitMergedHour(
    const std::string& category, TimeMs hour,
    const std::vector<std::string_view>& merged) {
  std::string hour_fragment = HourPartitionPath(hour);
  std::string final_dir = "/logs/" + category + "/" + hour_fragment;

  // 2. Write a few big files into a warehouse tmp dir.
  std::string tmp_dir = "/tmp/logmover/" + category + "/" + hour_fragment;
  if (warehouse_->Exists(tmp_dir)) {
    // Residue of a failed previous attempt: discard and redo.
    UNILOG_RETURN_NOT_OK(warehouse_->Delete(tmp_dir, /*recursive=*/true));
  }
  UNILOG_RETURN_NOT_OK(warehouse_->Mkdirs(tmp_dir));
  uint64_t part = 0;
  // part-NNNNN, zero-padded via std::string so any sequence width stays
  // unique (no fixed-buffer truncation).
  auto write_part = [&](const std::string& out) -> Status {
    std::string seq = std::to_string(part++);
    if (seq.size() < 5) seq.insert(0, 5 - seq.size(), '0');
    UNILOG_RETURN_NOT_OK(
        warehouse_->WriteFile(tmp_dir + "/part-" + seq, out));
    warehouse_files_written_->Increment();
    warehouse_file_bytes_->Observe(static_cast<double>(out.size()));
    return Status::OK();
  };
  if (options_.columnar_categories.count(category)) {
    UNILOG_RETURN_NOT_OK(WriteColumnarParts(merged, write_part));
  } else {
    // Parts are committed in part order, so the landed bytes are the same
    // at any thread count.
    BuildFramedParts(exec_, merged, options_.target_file_bytes,
                     &framed_parts_, &parts_);
    for (const std::string& body : parts_) {
      UNILOG_RETURN_NOT_OK(write_part(body));
    }
  }

  // 3. Build any necessary index alongside the data (§2), recording final
  //    warehouse paths, then atomically slide the hour into the warehouse.
  //    The index is written before the slide, so a failed index write
  //    fails the attempt like a failed part write: the retry redoes the
  //    whole hour from staging and drops nothing as late. Columnar hours
  //    skip the etwin index: their group headers already carry the zone
  //    maps and event-name dictionaries it would provide (and the index
  //    builder expects framed parts).
  if (options_.index_categories.count(category) &&
      !options_.columnar_categories.count(category)) {
    UNILOG_RETURN_NOT_OK(
        etwin::EventNameIndex::BuildForDir(warehouse_, tmp_dir, final_dir));
  }
  UNILOG_RETURN_NOT_OK(warehouse_->Mkdirs("/logs/" + category + "/" +
                                          hour_fragment.substr(0, 10)));
  UNILOG_RETURN_NOT_OK(warehouse_->Rename(tmp_dir, final_dir));
  messages_moved_->Increment(merged.size());
  return Status::OK();
}

Status LogMover::WriteColumnarParts(
    const std::vector<std::string_view>& merged,
    const std::function<Status(const std::string&)>& write_part) {
  // Parse every message once, in place, in exec chunks. A message that
  // fails the client-event parse is preserved verbatim in a framed-
  // compressed sidecar part (never dropped), so messages_moved still
  // counts every merged message and the delivery audit stays balanced.
  struct ParsedChunk {
    std::vector<events::ClientEventView> rows;
    std::vector<events::DetailView> details;
    std::vector<size_t> failed;  // indices into merged
  };
  std::vector<ParsedChunk> chunks(exec_->ChunksFor(merged.size()));
  exec_->ParallelForChunked(
      "mover.parse_events", merged.size(),
      [&](size_t c, size_t begin, size_t end) {
        ParsedChunk& chunk = chunks[c];
        chunk.rows.reserve(end - begin);
        events::ClientEventView row;
        for (size_t i = begin; i < end; ++i) {
          if (events::ReadClientEventBody(merged[i], &row, &chunk.details)
                  .ok()) {
            chunk.rows.push_back(row);
          } else {
            chunk.failed.push_back(i);
          }
        }
      });
  // Parsed row r of the hour is row r - row_base[c] of chunk c.
  std::vector<size_t> row_base(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    row_base[c + 1] = row_base[c] + chunks[c].rows.size();
    columnar_parse_fallbacks_->Increment(chunks[c].failed.size());
  }
  const size_t rows = row_base.back();

  // Encode row group g, parsed rows [g * group_rows, (g + 1) * group_rows),
  // on exec. Groups never straddle parts: an RcFileWriter's body grows
  // only when a group flushes, so rotating on its size cuts right after a
  // group — or, with a zero target, after every row.
  const size_t group_rows = options_.target_file_bytes == 0
                                ? 1
                                : columnar::kDefaultRowsPerGroup;
  const size_t num_groups = (rows + group_rows - 1) / group_rows;
  std::vector<std::string> groups(num_groups);
  exec_->ParallelFor("mover.encode_groups", num_groups, [&](size_t g) {
    thread_local columnar::RowGroupEncoder encoder;
    const size_t begin = g * group_rows;
    const size_t end = std::min(rows, begin + group_rows);
    size_t c = static_cast<size_t>(
        std::upper_bound(row_base.begin(), row_base.end(), begin) -
        row_base.begin() - 1);
    for (size_t r = begin; r < end; ++r) {
      while (r >= row_base[c + 1]) ++c;
      const ParsedChunk& chunk = chunks[c];
      const events::ClientEventView& row = chunk.rows[r - row_base[c]];
      encoder.Append(row, row.details(chunk.details));
    }
    encoder.FinishGroup(&groups[g]);
  });

  // A part ends after the first group that takes its body to
  // target_file_bytes — "files of roughly this size", as with the framed
  // layout.
  std::string body;
  for (size_t g = 0; g < num_groups; ++g) {
    if (body.empty()) body.append(columnar::kRcFileMagic);
    body.append(groups[g]);
    std::string().swap(groups[g]);
    if (body.size() >= options_.target_file_bytes || g + 1 == num_groups) {
      UNILOG_RETURN_NOT_OK(write_part(body));
      columnar_files_written_->Increment();
      body.clear();
    }
  }
  std::string fallback;
  for (const ParsedChunk& chunk : chunks) {
    for (size_t i : chunk.failed) AppendFramed(&fallback, merged[i]);
  }
  if (!fallback.empty()) {
    UNILOG_RETURN_NOT_OK(write_part(Lz::Compress(fallback)));
  }
  return Status::OK();
}

Status LogMover::DropLateStaging(const std::string& category, TimeMs hour) {
  std::string dir = "/staging/" + category + "/" + HourPartitionPath(hour);
  for (const auto& dc : datacenters_) {
    if (!dc.staging->Exists(dir)) continue;
    auto files = dc.staging->ListRecursive(dir);
    if (!files.ok()) return files.status();
    for (const auto& file : *files) {
      late_files_dropped_->Increment();
      late_entries_dropped_->Increment(CountEntriesInFile(dc.staging,
                                                          file.path));
    }
    UNILOG_RETURN_NOT_OK(dc.staging->Delete(dir, /*recursive=*/true));
  }
  return Status::OK();
}

void LogMover::SweepLateStaging() {
  for (const auto& dc : datacenters_) {
    auto files = dc.staging->ListRecursive("/staging");
    if (!files.ok()) continue;  // nothing staged, or outage: sweep later
    // Collect the late (category, hour) pairs first — deleting while
    // iterating a listing would skip entries.
    std::set<std::pair<std::string, TimeMs>> late;
    for (const auto& file : *files) {
      std::string category;
      TimeMs hour = 0;
      if (!ParseStagedHour(file.path, &category, &hour)) continue;
      if (hour < next_hour_) late.insert({category, hour});
    }
    for (const auto& [category, hour] : late) {
      std::string dir = "/staging/" + category + "/" + HourPartitionPath(hour);
      auto staged = dc.staging->ListRecursive(dir);
      if (!staged.ok()) continue;
      for (const auto& file : *staged) {
        late_files_dropped_->Increment();
        late_entries_dropped_->Increment(
            CountEntriesInFile(dc.staging, file.path));
      }
      if (!dc.staging->Delete(dir, /*recursive=*/true).ok()) continue;
    }
  }
}

}  // namespace unilog::scribe
