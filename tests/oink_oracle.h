#ifndef UNILOG_TESTS_OINK_ORACLE_H_
#define UNILOG_TESTS_OINK_ORACLE_H_

// Cold-recompute reference for the Oink WorkflowEngine. A workflow's
// answer is computed by a fresh single-workflow engine whose artifact
// cache lives under a root no other engine uses, so its one tick cannot
// hit: it opens the scan, runs the residual filters, the projection and
// the stage, and serializes the result as REL1 bytes. Cache hits, shared
// scans and re-ticks are checked against these bytes; a hit that differs
// from them was served under a key that does not cover its plan (a stale
// stage_id, say). The reference engine's cache directory is deleted
// again, so the file system is left as it was found.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/relation_serde.h"
#include "hdfs/mini_hdfs.h"
#include "oink/workflow.h"

namespace unilog::oink_oracle {

/// The REL1 bytes of `spec`'s cold answer for `period_index`. When
/// `scan_bytes` is set it receives the bytes the cold scan decompressed:
/// the cost of running the workflow alone, with no scan shared.
inline Result<std::string> ColdBytes(hdfs::MiniHdfs* fs,
                                     oink::WorkflowSpec spec,
                                     int64_t period_index = 0,
                                     uint64_t* scan_bytes = nullptr) {
  static std::atomic<uint64_t> next_root{0};
  oink::OinkOptions options;
  options.cache_root = "/_oink_oracle/" + std::to_string(next_root++);
  const std::string name = spec.name;
  std::string bytes;
  {
    oink::WorkflowEngine engine(fs, options);
    UNILOG_RETURN_NOT_OK(engine.AddWorkflow(std::move(spec)));
    UNILOG_RETURN_NOT_OK(engine.RunTick(period_index));
    if (engine.last_tick().cache_hits != 0 ||
        engine.last_tick().cache_misses != 1) {
      return Status::Internal("oink oracle: the cold tick did not miss");
    }
    if (scan_bytes != nullptr) {
      *scan_bytes = engine.last_tick().scan_bytes_decompressed;
    }
    UNILOG_ASSIGN_OR_RETURN(dataflow::Relation rel, engine.ResultFor(name));
    bytes = dataflow::SerializeRelation(rel);
  }
  if (fs->Exists(options.cache_root)) {
    UNILOG_RETURN_NOT_OK(fs->Delete(options.cache_root, true));
  }
  return bytes;
}

}  // namespace unilog::oink_oracle

#endif  // UNILOG_TESTS_OINK_ORACLE_H_
