#include "analytics/udfs.h"

#include "common/utf8.h"

namespace unilog::analytics {

CountClientEvents::CountClientEvents(const sessions::EventDictionary& dict,
                                     const events::EventPattern& pattern) {
  for (uint32_t cp : dict.Expand(pattern)) targets_.insert(cp);
}

uint64_t CountClientEvents::Count(std::string_view sequence_utf8) const {
  uint64_t count = 0;
  size_t pos = 0;
  uint32_t cp;
  while (pos < sequence_utf8.size()) {
    if (!DecodeOneUtf8(sequence_utf8, &pos, &cp).ok()) break;
    if (targets_.count(cp)) ++count;
  }
  return count;
}

uint64_t CountClientEvents::Count(const sessions::SessionSequence& seq) const {
  return Count(seq.sequence);
}

uint64_t CountClientEvents::TotalCount(
    const std::vector<sessions::SessionSequence>& seqs,
    exec::Executor* exec) const {
  exec = exec::OrInline(exec);
  std::vector<uint64_t> partials(exec->ChunksFor(seqs.size()), 0);
  exec->ParallelForChunked(
      "count-events", seqs.size(), [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) partials[chunk] += Count(seqs[i]);
      });
  uint64_t total = 0;
  for (uint64_t p : partials) total += p;
  return total;
}

bool CountClientEvents::ContainsAny(
    const sessions::SessionSequence& seq) const {
  size_t pos = 0;
  uint32_t cp;
  while (pos < seq.sequence.size()) {
    if (!DecodeOneUtf8(seq.sequence, &pos, &cp).ok()) break;
    if (targets_.count(cp)) return true;
  }
  return false;
}

Result<Funnel> Funnel::Make(const sessions::EventDictionary& dict,
                            const std::vector<std::string>& stage_events) {
  if (stage_events.empty()) {
    return Status::InvalidArgument("funnel needs at least one stage");
  }
  Funnel funnel;
  for (const auto& name : stage_events) {
    UNILOG_ASSIGN_OR_RETURN(uint32_t cp, dict.CodePointFor(name));
    funnel.stages_.push_back(cp);
  }
  return funnel;
}

size_t Funnel::StagesCompleted(std::string_view sequence_utf8) const {
  size_t stage = 0;
  size_t pos = 0;
  uint32_t cp;
  while (stage < stages_.size() && pos < sequence_utf8.size()) {
    if (!DecodeOneUtf8(sequence_utf8, &pos, &cp).ok()) break;
    if (cp == stages_[stage]) ++stage;
  }
  return stage;
}

size_t Funnel::StagesCompleted(const sessions::SessionSequence& seq) const {
  return StagesCompleted(seq.sequence);
}

std::vector<uint64_t> Funnel::StageCounts(
    const std::vector<sessions::SessionSequence>& seqs,
    exec::Executor* exec) const {
  exec = exec::OrInline(exec);
  std::vector<uint64_t> counts(stages_.size(), 0);
  std::vector<std::vector<uint64_t>> partials(
      exec->ChunksFor(seqs.size()), std::vector<uint64_t>(stages_.size(), 0));
  exec->ParallelForChunked(
      "funnel", seqs.size(), [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          size_t completed = StagesCompleted(seqs[i]);
          for (size_t s = 0; s < completed; ++s) ++partials[chunk][s];
        }
      });
  for (const auto& partial : partials) {
    for (size_t s = 0; s < counts.size(); ++s) counts[s] += partial[s];
  }
  return counts;
}

std::vector<double> Funnel::AbandonmentRates(
    const std::vector<sessions::SessionSequence>& seqs) const {
  std::vector<uint64_t> counts = StageCounts(seqs);
  std::vector<double> rates;
  for (size_t i = 0; i + 1 < counts.size(); ++i) {
    if (counts[i] == 0) {
      rates.push_back(0.0);
    } else {
      rates.push_back(1.0 - static_cast<double>(counts[i + 1]) /
                                static_cast<double>(counts[i]));
    }
  }
  return rates;
}

RateReport ComputeRate(const std::vector<sessions::SessionSequence>& seqs,
                       const sessions::EventDictionary& dict,
                       const events::EventPattern& impression_pattern,
                       const events::EventPattern& action_pattern,
                       exec::Executor* exec) {
  CountClientEvents impressions(dict, impression_pattern);
  CountClientEvents actions(dict, action_pattern);
  auto scan_one = [&](const sessions::SessionSequence& seq,
                      RateReport* report) {
    uint64_t imp = impressions.Count(seq);
    uint64_t act = actions.Count(seq);
    report->impressions += imp;
    report->actions += act;
    if (imp > 0) ++report->sessions_with_impression;
    if (act > 0) ++report->sessions_with_action;
  };
  exec = exec::OrInline(exec);
  std::vector<RateReport> partials(exec->ChunksFor(seqs.size()));
  exec->ParallelForChunked(
      "rate", seqs.size(), [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) scan_one(seqs[i], &partials[chunk]);
      });
  RateReport report;
  for (const auto& p : partials) {
    report.impressions += p.impressions;
    report.actions += p.actions;
    report.sessions_with_impression += p.sessions_with_impression;
    report.sessions_with_action += p.sessions_with_action;
  }
  report.rate = report.impressions == 0
                    ? 0.0
                    : static_cast<double>(report.actions) /
                          static_cast<double>(report.impressions);
  return report;
}

}  // namespace unilog::analytics
