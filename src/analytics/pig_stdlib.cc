#include "analytics/pig_stdlib.h"

#include <memory>

#include "analytics/udfs.h"
#include "common/utf8.h"
#include "dataflow/columnar_scan.h"
#include "sessions/dictionary.h"
#include "sessions/session_sequence.h"

namespace unilog::analytics {

using dataflow::PigInterpreter;
using dataflow::Relation;
using dataflow::Value;

namespace {

/// Shared state between the loaders and the dictionary-dependent UDFs.
struct Stdlib {
  const hdfs::MiniHdfs* warehouse = nullptr;
  std::shared_ptr<sessions::EventDictionary> dict;

  Result<std::shared_ptr<sessions::EventDictionary>> Dictionary() const {
    if (dict == nullptr) {
      return Status::FailedPrecondition(
          "no sequence partition loaded yet (LOAD ... USING "
          "SessionSequencesLoader() first)");
    }
    return dict;
  }
};

Result<Relation> LoadSequences(std::shared_ptr<Stdlib> lib,
                               const std::string& path) {
  // path is a partition dir like /session_sequences/2012-08-21.
  UNILOG_ASSIGN_OR_RETURN(std::string dict_blob,
                          lib->warehouse->ReadFile(path + "/_dictionary"));
  UNILOG_ASSIGN_OR_RETURN(sessions::EventDictionary dict,
                          sessions::EventDictionary::Deserialize(dict_blob));
  lib->dict = std::make_shared<sessions::EventDictionary>(std::move(dict));

  Relation rel({"user_id", "session_id", "ip", "sequence", "duration"});
  UNILOG_RETURN_NOT_OK(sessions::SequenceStore::ReadDir(
      *lib->warehouse, path, [&rel](const sessions::SessionSequence& seq) {
        return rel.AddRow({Value::Int(seq.user_id), Value::Str(seq.session_id),
                           Value::Str(seq.ip), Value::Str(seq.sequence),
                           Value::Int(seq.duration_seconds)});
      }));
  return rel;
}

/// The factory of a one-pattern UDF over a sequence column: `name(pattern)`
/// counts the pattern's events in each sequence and returns
/// `result(count)`. The counter binds the dictionary at first evaluation
/// (DEFINE may run before LOAD in a script).
PigInterpreter::UdfFactory PatternUdf(std::shared_ptr<Stdlib> lib,
                                      std::string name,
                                      int64_t (*result)(uint64_t count)) {
  return [lib, name, result](const std::vector<std::string>& args)
             -> Result<PigInterpreter::ScalarUdf> {
    if (args.size() != 1) {
      return Status::InvalidArgument(name + " takes one pattern argument");
    }
    std::string pattern = args[0];
    auto counter = std::make_shared<std::unique_ptr<CountClientEvents>>();
    return PigInterpreter::ScalarUdf(
        [lib, name, result, pattern,
         counter](const std::vector<Value>& call_args) -> Result<Value> {
          if (call_args.size() != 1 || !call_args[0].is_str()) {
            return Status::InvalidArgument(
                name + "(sequence) expects one string column");
          }
          if (*counter == nullptr) {
            UNILOG_ASSIGN_OR_RETURN(auto dict, lib->Dictionary());
            *counter = std::make_unique<CountClientEvents>(
                *dict, events::EventPattern(pattern));
          }
          return Value::Int(
              result((*counter)->Count(call_args[0].str_value())));
        });
  };
}

}  // namespace

void InstallPigStdlib(PigInterpreter* pig, const hdfs::MiniHdfs* warehouse,
                      obs::MetricsRegistry* metrics) {
  auto lib = std::make_shared<Stdlib>();
  lib->warehouse = warehouse;

  pig->RegisterLoader(
      "SessionSequencesLoader",
      [lib](const std::string& path, const std::vector<std::string>&) {
        return LoadSequences(lib, path);
      });
  pig->RegisterScanLoader(
      "ClientEventsLoader",
      [lib, metrics](const std::string& path, const std::vector<std::string>&) {
        return dataflow::ColumnarEventScan::Open(lib->warehouse, path,
                                                 metrics);
      });

  pig->RegisterUdfFactory(
      "CountClientEvents",
      PatternUdf(lib, "CountClientEvents",
                 [](uint64_t n) { return static_cast<int64_t>(n); }));
  pig->RegisterUdfFactory(
      "ContainsClientEvents",
      PatternUdf(lib, "ContainsClientEvents",
                 [](uint64_t n) -> int64_t { return n > 0 ? 1 : 0; }));

  pig->RegisterUdfFactory(
      "ClientEventsFunnel",
      [lib](const std::vector<std::string>& args)
          -> Result<PigInterpreter::ScalarUdf> {
        if (args.empty()) {
          return Status::InvalidArgument(
              "ClientEventsFunnel needs at least one stage event");
        }
        std::vector<std::string> stages = args;
        auto funnel = std::make_shared<std::unique_ptr<Funnel>>();
        return PigInterpreter::ScalarUdf(
            [lib, stages, funnel](const std::vector<Value>& call_args)
                -> Result<Value> {
              if (call_args.size() != 1 || !call_args[0].is_str()) {
                return Status::InvalidArgument(
                    "ClientEventsFunnel(sequence) expects one string column");
              }
              if (*funnel == nullptr) {
                UNILOG_ASSIGN_OR_RETURN(auto dict, lib->Dictionary());
                UNILOG_ASSIGN_OR_RETURN(Funnel f, Funnel::Make(*dict, stages));
                *funnel = std::make_unique<Funnel>(std::move(f));
              }
              return Value::Int(static_cast<int64_t>(
                  (*funnel)->StagesCompleted(call_args[0].str_value())));
            });
      });

  pig->RegisterUdfFactory(
      "EventCount",
      [](const std::vector<std::string>&)
          -> Result<PigInterpreter::ScalarUdf> {
        return PigInterpreter::ScalarUdf(
            [](const std::vector<Value>& call_args) -> Result<Value> {
              if (call_args.size() != 1 || !call_args[0].is_str()) {
                return Status::InvalidArgument(
                    "EventCount(sequence) expects one string column");
              }
              return Value::Int(static_cast<int64_t>(
                  Utf8Length(call_args[0].str_value())));
            });
      });
}

}  // namespace unilog::analytics
