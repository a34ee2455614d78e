#include "catalog/catalog.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "events/client_event.h"

namespace unilog::catalog {

namespace {

// A sample is a client event, shown in Thrift's {id: value, ...} notation:
// the six fields by id, then the details map as field 7 when it has
// entries. Strings are quoted, their bytes unescaped.
std::string RenderSample(const std::string& payload) {
  events::ClientEventView ev;
  std::vector<events::DetailView> details;
  if (events::ReadClientEventBody(payload, &ev, &details).ok()) {
    auto quoted = [](std::string_view s) {
      std::string q = "\"";
      q.append(s);
      q += '"';
      return q;
    };
    std::string out =
        "{1: " + std::to_string(static_cast<int32_t>(ev.initiator)) +
        ", 2: " + quoted(ev.event_name) +
        ", 3: " + std::to_string(ev.user_id) +
        ", 4: " + quoted(ev.session_id) + ", 5: " + quoted(ev.ip) +
        ", 6: " + std::to_string(ev.timestamp);
    if (!details.empty()) {
      out += ", 7: <";
      for (size_t i = 0; i < details.size(); ++i) {
        if (i > 0) out += ", ";
        out += quoted(details[i].first) + ": " + quoted(details[i].second);
      }
      out += '>';
    }
    out += '}';
    return out;
  }
  // Unparseable: hex-escape a prefix so the catalog still shows something.
  std::string out = "<raw:";
  size_t limit = payload.size() < 16 ? payload.size() : 16;
  char buf[4];
  for (size_t i = 0; i < limit; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x",
                  static_cast<unsigned char>(payload[i]));
    out += buf;
  }
  out += ">";
  return out;
}

}  // namespace

EventCatalog EventCatalog::Build(const sessions::EventHistogram& histogram,
                                 const sessions::EventDictionary& dict) {
  EventCatalog catalog;
  for (const auto& [name, count] : histogram.counts()) {
    CatalogEntry entry;
    entry.name = name;
    entry.count = count;
    auto cp = dict.CodePointFor(name);
    entry.code_point = cp.ok() ? *cp : 0;
    for (const auto& sample : histogram.SamplesOf(name)) {
      entry.samples.push_back(RenderSample(sample));
    }
    catalog.entries_.emplace(name, std::move(entry));
  }
  return catalog;
}

const CatalogEntry* EventCatalog::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const CatalogEntry*> EventCatalog::ByPrefix(
    const std::string& prefix) const {
  std::vector<const CatalogEntry*> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    // Require a component boundary: exact match, or ':' right after.
    if (it->first.size() > prefix.size() &&
        it->first[prefix.size()] != ':' && !prefix.empty()) {
      continue;
    }
    out.push_back(&it->second);
  }
  return out;
}

std::vector<const CatalogEntry*> EventCatalog::ByPattern(
    const events::EventPattern& pattern) const {
  std::vector<const CatalogEntry*> out;
  for (const auto& [name, entry] : entries_) {
    if (pattern.Matches(name)) out.push_back(&entry);
  }
  return out;
}

std::vector<const CatalogEntry*> EventCatalog::ByComponent(
    events::NameComponent which, const std::string& value) const {
  std::vector<const CatalogEntry*> out;
  int index = static_cast<int>(which);
  for (const auto& [name, entry] : entries_) {
    auto parts = Split(name, ':');
    if (static_cast<int>(parts.size()) == events::kNameComponents &&
        parts[index] == value) {
      out.push_back(&entry);
    }
  }
  return out;
}

std::vector<const CatalogEntry*> EventCatalog::ByCount() const {
  std::vector<const CatalogEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const CatalogEntry* a, const CatalogEntry* b) {
              if (a->count != b->count) return a->count > b->count;
              return a->name < b->name;
            });
  return out;
}

Status EventCatalog::AttachDescription(const std::string& name,
                                       std::string description) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no such event: " + name);
  }
  it->second.description = std::move(description);
  return Status::OK();
}

void EventCatalog::InheritDescriptions(const EventCatalog& previous) {
  for (auto& [name, entry] : entries_) {
    if (!entry.description.empty()) continue;
    const CatalogEntry* old = previous.Find(name);
    if (old != nullptr && !old->description.empty()) {
      entry.description = old->description;
    }
  }
}

Status EventCatalog::SaveTo(hdfs::MiniHdfs* fs,
                            const std::string& path) const {
  std::string body = ExportJson().Dump();
  if (fs->Exists(path)) {
    UNILOG_RETURN_NOT_OK(fs->Delete(path));
  }
  return fs->WriteFile(path, body);
}

Result<EventCatalog> EventCatalog::LoadFrom(const hdfs::MiniHdfs& fs,
                                            const std::string& path) {
  UNILOG_ASSIGN_OR_RETURN(std::string body, fs.ReadFile(path));
  UNILOG_ASSIGN_OR_RETURN(Json doc, Json::Parse(body));
  if (!doc.is_array()) return Status::Corruption("catalog: expected array");
  EventCatalog catalog;
  for (const Json& e : doc.array_items()) {
    if (!e.is_object() || !e["name"].is_string()) {
      return Status::Corruption("catalog: bad entry");
    }
    CatalogEntry entry;
    entry.name = e["name"].string_value();
    entry.code_point = static_cast<uint32_t>(e["code_point"].int_value());
    entry.count = static_cast<uint64_t>(e["count"].int_value());
    if (e["description"].is_string()) {
      entry.description = e["description"].string_value();
    }
    for (const Json& s : e["samples"].array_items()) {
      if (s.is_string()) entry.samples.push_back(s.string_value());
    }
    catalog.entries_.emplace(entry.name, std::move(entry));
  }
  return catalog;
}

Json EventCatalog::ExportJson() const {
  Json root = Json::Array();
  for (const CatalogEntry* entry : ByCount()) {
    Json e = Json::Object();
    e.Set("name", Json::Str(entry->name));
    e.Set("code_point", Json::Int(entry->code_point));
    e.Set("count", Json::Int(static_cast<int64_t>(entry->count)));
    if (!entry->description.empty()) {
      e.Set("description", Json::Str(entry->description));
    }
    Json samples = Json::Array();
    for (const auto& s : entry->samples) samples.Push(Json::Str(s));
    e.Set("samples", std::move(samples));
    root.Push(std::move(e));
  }
  return root;
}

}  // namespace unilog::catalog
