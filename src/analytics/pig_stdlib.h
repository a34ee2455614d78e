#ifndef UNILOG_ANALYTICS_PIG_STDLIB_H_
#define UNILOG_ANALYTICS_PIG_STDLIB_H_

#include "dataflow/pig.h"
#include "hdfs/mini_hdfs.h"

namespace unilog::obs {
class MetricsRegistry;
}  // namespace unilog::obs

namespace unilog::analytics {

/// Installs the unilog standard library into a Pig interpreter, wired to a
/// warehouse — everything the §5.2/§5.3 scripts reference:
///
/// Loaders:
///   SessionSequencesLoader()  — LOAD '/session_sequences/YYYY-MM-DD';
///       columns {user_id, session_id, ip, sequence, duration}; also binds
///       the partition's dictionary for the UDFs below.
///   ClientEventsLoader()      — LOAD any /logs/<category>/... directory;
///       columns {initiator, event_name, user_id, session_id, ip,
///       timestamp}; layout-agnostic: columnar (RCFile) and legacy
///       framed-compressed part files are read alike, sniffed per file.
///       Binds a deferred dataflow::ColumnarEventScan: an
///       immediately-following FILTER/FOREACH is fused into the scan
///       (zone-map group skipping, dictionary pruning, column projection)
///       and rows materialize only at the first non-fusible consumer.
///
/// UDF factories (usable via DEFINE or directly):
///   CountClientEvents('pattern')        — matching events in a sequence.
///   ContainsClientEvents('pattern')     — 1 if any match else 0.
///   ClientEventsFunnel('e1','e2',...)   — stages completed, in order.
///   EventCount()                        — events in a sequence.
///
/// The dictionary binding follows script order: UDFs constructed by DEFINE
/// resolve their patterns against the dictionary of the most recently
/// loaded sequence partition at first use (lazily), matching how the
/// paper's loader "abstracts over details of the physical layout".
///
/// Columnar scan accounting (groups skipped, bytes decompressed, rows
/// pruned) is reported into `metrics` when non-null.
void InstallPigStdlib(dataflow::PigInterpreter* pig,
                      const hdfs::MiniHdfs* warehouse,
                      obs::MetricsRegistry* metrics = nullptr);

}  // namespace unilog::analytics

#endif  // UNILOG_ANALYTICS_PIG_STDLIB_H_
