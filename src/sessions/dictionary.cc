#include "sessions/dictionary.h"

#include "common/coding.h"
#include "common/utf8.h"

namespace unilog::sessions {

Result<uint32_t> EventDictionary::NthCodePoint(uint64_t n) {
  // Assignment starts at 1 (0 is reserved so sequences never contain NUL,
  // which keeps them friendly to C-string tooling) and skips the surrogate
  // block.
  uint64_t cp = n + 1;
  if (cp >= kSurrogateLo) cp += (kSurrogateHi - kSurrogateLo + 1);
  if (cp > kMaxCodePoint) {
    return Status::OutOfRange("event alphabet exceeds unicode code points");
  }
  return static_cast<uint32_t>(cp);
}

Result<EventDictionary> EventDictionary::FromSortedCounts(
    const std::vector<std::pair<std::string, uint64_t>>& sorted) {
  std::vector<std::string> names;
  names.reserve(sorted.size());
  for (const auto& [name, count] : sorted) names.push_back(name);
  return FromNamesInGivenOrder(names);
}

Result<EventDictionary> EventDictionary::FromNamesInGivenOrder(
    const std::vector<std::string>& names) {
  EventDictionary dict;
  dict.names_.reserve(names.size());
  dict.code_points_.reserve(names.size());
  for (uint64_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    if (dict.name_to_cp_.count(name)) {
      return Status::InvalidArgument("duplicate event name: " + name);
    }
    UNILOG_ASSIGN_OR_RETURN(uint32_t cp, NthCodePoint(i));
    dict.name_to_cp_.emplace(name, cp);
    dict.cp_to_index_.emplace(cp, static_cast<uint32_t>(i));
    dict.names_.push_back(name);
    dict.code_points_.push_back(cp);
  }
  return dict;
}

Result<uint32_t> EventDictionary::CodePointFor(
    std::string_view event_name) const {
  auto it = name_to_cp_.find(std::string(event_name));
  if (it == name_to_cp_.end()) {
    return Status::NotFound("event not in dictionary: " +
                            std::string(event_name));
  }
  return it->second;
}

Result<std::string> EventDictionary::NameFor(uint32_t code_point) const {
  auto it = cp_to_index_.find(code_point);
  if (it == cp_to_index_.end()) {
    return Status::NotFound("code point not in dictionary: " +
                            std::to_string(code_point));
  }
  return names_[it->second];
}

bool EventDictionary::Contains(std::string_view event_name) const {
  return name_to_cp_.count(std::string(event_name)) > 0;
}

std::vector<uint32_t> EventDictionary::Expand(
    const events::EventPattern& pattern) const {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (pattern.Matches(names_[i])) out.push_back(code_points_[i]);
  }
  return out;
}

Result<std::string> EventDictionary::EncodeNames(
    const std::vector<std::string>& names) const {
  std::string out;
  for (const auto& name : names) {
    UNILOG_ASSIGN_OR_RETURN(uint32_t cp, CodePointFor(name));
    UNILOG_RETURN_NOT_OK(AppendUtf8(&out, cp));
  }
  return out;
}

Result<std::vector<std::string>> EventDictionary::DecodeToNames(
    std::string_view utf8) const {
  UNILOG_ASSIGN_OR_RETURN(std::vector<uint32_t> cps, DecodeUtf8(utf8));
  std::vector<std::string> out;
  out.reserve(cps.size());
  for (uint32_t cp : cps) {
    UNILOG_ASSIGN_OR_RETURN(std::string name, NameFor(cp));
    out.push_back(std::move(name));
  }
  return out;
}

std::string EventDictionary::Serialize() const {
  std::string out;
  PutVarint64(&out, names_.size());
  for (const auto& name : names_) {
    PutLengthPrefixed(&out, name);
  }
  return out;
}

Result<EventDictionary> EventDictionary::Deserialize(std::string_view data) {
  Decoder dec(data);
  uint64_t n;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&n));
  // Every name spends a length byte or more, so a count past the bytes
  // left is corrupt; checked before anything is sized from it.
  if (n > dec.remaining()) {
    return Status::Corruption("dictionary: more names than bytes");
  }
  std::vector<std::string> names;
  names.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&name));
    names.emplace_back(name);
  }
  if (!dec.AtEnd()) return Status::Corruption("dictionary: trailing bytes");
  return FromNamesInGivenOrder(names);
}

}  // namespace unilog::sessions
