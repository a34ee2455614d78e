#include "columnar/scrubber.h"

#include "columnar/rcfile.h"
#include "events/client_event.h"
#include "obs/metrics.h"

namespace unilog::columnar {

std::string ScrubReport::ToString() const {
  return "checked=" + std::to_string(files_checked) +
         " skipped=" + std::to_string(files_skipped) +
         " quarantined=" + std::to_string(files_quarantined) +
         " rows=" + std::to_string(rows_verified);
}

Result<ScrubReport> ScrubColumnarDir(hdfs::MiniHdfs* fs,
                                     const std::string& root,
                                     obs::MetricsRegistry* metrics) {
  ScrubReport report;
  UNILOG_ASSIGN_OR_RETURN(auto files, fs->ListRecursive(root));
  for (const auto& file : files) {
    if (hdfs::IsHiddenWarehousePath(root, file.path)) {
      ++report.files_skipped;
      continue;
    }
    UNILOG_ASSIGN_OR_RETURN(std::string body, fs->ReadFile(file.path));
    if (!IsRcFile(body)) {
      ++report.files_skipped;  // only columnar parts carry checksums
      continue;
    }
    ++report.files_checked;
    RcFileReader reader(body);
    std::vector<events::ClientEvent> events;
    Status st = reader.ReadAll(kAllColumns, &events);
    if (st.ok()) {
      report.rows_verified += events.size();
      continue;
    }
    if (!st.IsCorruption()) return st;
    size_t slash = file.path.rfind('/');
    std::string hidden = file.path.substr(0, slash + 1) + "_quarantined." +
                         file.path.substr(slash + 1);
    UNILOG_RETURN_NOT_OK(fs->Rename(file.path, hidden));
    ++report.files_quarantined;
    report.quarantined.push_back(hidden);
  }
  if (metrics != nullptr) {
    metrics->GetCounter("scrub.files_checked")
        ->Increment(report.files_checked);
    metrics->GetCounter("scrub.files_quarantined")
        ->Increment(report.files_quarantined);
    metrics->GetCounter("scrub.rows_verified")
        ->Increment(report.rows_verified);
  }
  return report;
}

}  // namespace unilog::columnar
