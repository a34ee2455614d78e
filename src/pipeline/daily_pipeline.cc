#include "pipeline/daily_pipeline.h"

#include <algorithm>
#include <memory>

#include "common/coding.h"
#include "events/client_event.h"
#include "events/event_name.h"
#include "sessions/sessionizer.h"

namespace unilog::pipeline {

void UserTable::Add(int64_t user_id, Attributes attributes) {
  users_[user_id] = std::move(attributes);
}

const UserTable::Attributes* UserTable::Find(int64_t user_id) const {
  auto it = users_.find(user_id);
  return it == users_.end() ? nullptr : &it->second;
}

UserTable UserTable::FromWorkload(
    const workload::WorkloadGenerator& generator) {
  UserTable table;
  for (const auto& user : generator.users()) {
    table.Add(user.user_id, {user.country, user.logged_in});
  }
  return table;
}

std::vector<std::string> DailyPipeline::HourDirsFor(TimeMs date) const {
  std::vector<std::string> dirs;
  TimeMs day = TruncateToDay(date);
  for (int hour = 0; hour < 24; ++hour) {
    std::string dir = "/logs/" + category_ + "/" +
                      HourPartitionPath(day + hour * kMillisPerHour);
    if (warehouse_->Exists(dir)) dirs.push_back(dir);
  }
  return dirs;
}

Result<DailyJobResult> DailyPipeline::RunForDate(TimeMs date,
                                                 const UserTable& users) {
  std::vector<std::string> hour_dirs = HourDirsFor(date);
  if (hour_dirs.empty()) {
    return Status::NotFound("no warehouse logs for " + DateString(date) +
                            " under /logs/" + category_);
  }

  DailyJobResult result;

  // ---- Pass 1: histogram + dictionary job (plus rollups & catalog).
  {
    dataflow::MapReduceJob job(warehouse_, cost_model_);
    job.set_executor(exec_);
    // A landed part that fails its RCFile checksums is quarantined (renamed
    // `_quarantined.*`) rather than failing the day: the paper's pipeline
    // keeps running when one aggregator ships a bad file.
    job.set_quarantine_fs(warehouse_);
    // Warehoused hours may be framed-compressed or columnar (RCFile)
    // depending on the mover's columnar_categories; sniff per file.
    job.set_input_format(dataflow::InputFormat::CompressedFramedOrColumnar());
    for (const auto& dir : hour_dirs) {
      UNILOG_RETURN_NOT_OK(job.AddInputDir(dir));
    }
    // The histogram and rollups are map-side by-products; each map task
    // accumulates into private state, merged in input order after the map
    // phase — the same stream a serial scan would have produced.
    struct Pass1Locals : dataflow::TaskLocal {
      sessions::EventHistogram histogram;
      events::RollupAggregator rollups;
    };
    const UserTable* user_table = &users;
    job.set_map_with_state(
        [user_table](const std::string& record, dataflow::Emitter* emitter,
                     dataflow::TaskLocal* state) -> Status {
          auto* locals = static_cast<Pass1Locals*>(state);
          UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                                  events::ClientEvent::Deserialize(record));
          locals->histogram.Add(ev.event_name, &record);
          // Rollup by-products: country/logged-in from the users table.
          auto parsed = events::EventName::Parse(ev.event_name);
          if (parsed.ok()) {
            const UserTable::Attributes* attrs = user_table->Find(ev.user_id);
            locals->rollups.Add(
                *parsed, attrs != nullptr ? attrs->country : "unknown",
                attrs != nullptr && attrs->logged_in);
          }
          emitter->Emit(ev.event_name, "");
          return Status::OK();
        },
        [] { return std::make_unique<Pass1Locals>(); },
        [&result](dataflow::TaskLocal* state) {
          auto* locals = static_cast<Pass1Locals*>(state);
          result.histogram.Merge(locals->histogram);
          result.rollups.Merge(locals->rollups);
        });
    job.set_reduce([](const std::string& key,
                      const std::vector<std::string>& values,
                      dataflow::Emitter* emitter) -> Status {
      emitter->Emit(key, std::to_string(values.size()));
      return Status::OK();
    });
    UNILOG_RETURN_NOT_OK(job.Run().status());
    result.histogram_job = job.stats();
  }
  UNILOG_ASSIGN_OR_RETURN(
      result.dictionary,
      sessions::EventDictionary::FromSortedCounts(
          result.histogram.SortedByFrequency()));
  result.catalog =
      catalog::EventCatalog::Build(result.histogram, result.dictionary);
  // Rebuild-daily catalog semantics (§4.3): inherit yesterday's manual
  // descriptions, then persist today's catalog to its known location.
  std::string yesterday_catalog =
      "/catalog/" + DateString(TruncateToDay(date) - kMillisPerDay) + ".json";
  if (warehouse_->Exists(yesterday_catalog)) {
    auto previous =
        catalog::EventCatalog::LoadFrom(*warehouse_, yesterday_catalog);
    if (previous.ok()) result.catalog.InheritDescriptions(*previous);
  }
  UNILOG_RETURN_NOT_OK(result.catalog.SaveTo(
      warehouse_, "/catalog/" + DateString(date) + ".json"));

  // ---- Pass 2: session reconstruction (the big group-by) + encoding.
  {
    dataflow::MapReduceJob job(warehouse_, cost_model_);
    job.set_executor(exec_);
    job.set_quarantine_fs(warehouse_);
    job.set_input_format(dataflow::InputFormat::CompressedFramedOrColumnar());
    for (const auto& dir : hour_dirs) {
      UNILOG_RETURN_NOT_OK(job.AddInputDir(dir));
    }
    // Map: key = (user_id, session_id); value = the whole serialized event
    // (this is exactly the data shuffling §4.1 complains about).
    job.set_map([](const std::string& record,
                   dataflow::Emitter* emitter) -> Status {
      UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                              events::ClientEvent::Deserialize(record));
      std::string key;
      PutSignedVarint64(&key, ev.user_id);
      key.push_back('|');
      key += ev.session_id;
      emitter->Emit(std::move(key), record);
      return Status::OK();
    });
    // Reduce emits encoded sequences as values (no shared state, so
    // reduce groups may run concurrently); they are decoded from the job
    // output below, which arrives in deterministic key order.
    const sessions::EventDictionary* dict = &result.dictionary;
    job.set_reduce([dict](const std::string& /*key*/,
                          const std::vector<std::string>& values,
                          dataflow::Emitter* emitter) -> Status {
      sessions::Sessionizer sessionizer;
      for (const auto& record : values) {
        UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                                events::ClientEvent::Deserialize(record));
        sessionizer.Add(ev);
      }
      for (const auto& session : sessionizer.Build()) {
        UNILOG_ASSIGN_OR_RETURN(sessions::SessionSequence seq,
                                sessions::EncodeSession(session, *dict));
        std::string blob;
        sessions::AppendSequenceRecord(&blob, seq);
        emitter->Emit(std::to_string(session.user_id), std::move(blob));
      }
      return Status::OK();
    });
    UNILOG_ASSIGN_OR_RETURN(auto output, job.Run());
    result.sessionize_job = job.stats();
    for (const auto& [key, blob] : output) {
      sessions::SequenceRecordReader reader(blob);
      sessions::SessionSequence seq;
      UNILOG_RETURN_NOT_OK(reader.Next(&seq));
      result.sequences.push_back(std::move(seq));
    }
  }

  // Deterministic order for downstream consumers (stable: ties keep the
  // job-output key order, itself deterministic).
  std::stable_sort(result.sequences.begin(), result.sequences.end(),
                   [](const sessions::SessionSequence& a,
                      const sessions::SessionSequence& b) {
                     if (a.user_id != b.user_id) return a.user_id < b.user_id;
                     return a.session_id < b.session_id;
                   });

  // ---- Materialize the sequence partition.
  UNILOG_RETURN_NOT_OK(sessions::SequenceStore::WriteDaily(
      warehouse_, date, result.sequences, result.dictionary));
  return result;
}

Status DriveWorkloadThroughScribe(Simulator* sim,
                                  scribe::ScribeCluster* cluster,
                                  workload::WorkloadGenerator* generator,
                                  const std::string& category) {
  size_t dc_count = cluster->datacenter_count();
  return generator->Generate([sim, cluster, dc_count, category](
                                 const events::ClientEvent& ev) {
    size_t dc = static_cast<size_t>(ev.user_id) % dc_count;
    std::string message = ev.Serialize();
    sim->At(ev.timestamp, [cluster, dc, category,
                           message = std::move(message)]() {
      cluster->Log(dc, scribe::LogEntry{category, message});
    });
  });
}

}  // namespace unilog::pipeline
