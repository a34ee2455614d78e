#include "etwin/index.h"

#include <unordered_set>

#include "common/coding.h"
#include "common/compress.h"
#include "events/client_event.h"
#include "scribe/message.h"

namespace unilog::etwin {

Status EventNameIndex::BuildForDir(hdfs::MiniHdfs* fs, const std::string& dir,
                                   const std::string& renamed_to) {
  UNILOG_ASSIGN_OR_RETURN(auto files, fs->ListRecursive(dir));
  EventNameIndex index;
  std::vector<std::string_view> records;
  events::ClientEventView event;
  std::vector<events::DetailView> details;
  for (const auto& file : files) {
    // Markers, the old index and anything under a hidden subtree.
    if (hdfs::IsHiddenWarehousePath(dir, file.path)) continue;
    uint32_t file_id = static_cast<uint32_t>(index.file_names_.size());
    index.file_names_.push_back(
        renamed_to.empty() ? file.path
                           : renamed_to + file.path.substr(dir.size()));

    UNILOG_ASSIGN_OR_RETURN(std::string blob, fs->ReadFile(file.path));
    UNILOG_ASSIGN_OR_RETURN(std::string body, Lz::Decompress(blob));
    // Index each record under the name every reader parses from it. A
    // record the parser rejects yields no event, so no name can match it
    // and it stays unindexed.
    records.clear();
    UNILOG_RETURN_NOT_OK(scribe::UnframeMessageViews(body, &records));
    for (std::string_view record : records) {
      details.clear();
      if (events::ReadClientEventBody(record, &event, &details).ok()) {
        index.name_to_files_[std::string(event.event_name)].insert(file_id);
      }
    }
  }
  std::string index_path = dir + "/" + kIndexFile;
  if (fs->Exists(index_path)) {
    UNILOG_RETURN_NOT_OK(fs->Delete(index_path));
  }
  return fs->WriteFile(index_path, index.Serialize());
}

Result<EventNameIndex> EventNameIndex::Load(const hdfs::MiniHdfs& fs,
                                            const std::string& dir) {
  UNILOG_ASSIGN_OR_RETURN(std::string data,
                          fs.ReadFile(dir + "/" + kIndexFile));
  return Deserialize(data);
}

std::vector<std::string> EventNameIndex::FilesMatching(
    const events::EventPattern& pattern) const {
  std::set<uint32_t> ids;
  for (const auto& [name, files] : name_to_files_) {
    if (pattern.Matches(name)) {
      ids.insert(files.begin(), files.end());
    }
  }
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (uint32_t id : ids) out.push_back(file_names_[id]);
  return out;
}

std::function<bool(const std::string& path)> EventNameIndex::FileFilter(
    const events::EventPattern& pattern) const {
  auto matching = FilesMatching(pattern);
  auto accept = std::make_shared<std::unordered_set<std::string>>(
      matching.begin(), matching.end());
  auto known = std::make_shared<std::unordered_set<std::string>>(
      file_names_.begin(), file_names_.end());
  return [accept, known](const std::string& path) {
    if (!known->count(path)) return true;  // unindexed: be conservative
    return accept->count(path) > 0;
  };
}

std::string EventNameIndex::Serialize() const {
  std::string out;
  PutVarint64(&out, file_names_.size());
  for (const auto& name : file_names_) PutLengthPrefixed(&out, name);
  PutVarint64(&out, name_to_files_.size());
  for (const auto& [name, files] : name_to_files_) {
    PutLengthPrefixed(&out, name);
    PutVarint64(&out, files.size());
    for (uint32_t id : files) PutVarint64(&out, id);
  }
  return out;
}

Result<EventNameIndex> EventNameIndex::Deserialize(std::string_view data) {
  EventNameIndex index;
  Decoder dec(data);
  uint64_t n_files;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&n_files));
  for (uint64_t i = 0; i < n_files; ++i) {
    std::string_view path;
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&path));
    index.file_names_.emplace_back(path);
  }
  uint64_t n_names;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&n_names));
  for (uint64_t i = 0; i < n_names; ++i) {
    std::string_view name;
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&name));
    uint64_t count;
    UNILOG_RETURN_NOT_OK(dec.GetVarint64(&count));
    auto& files = index.name_to_files_[std::string(name)];
    for (uint64_t j = 0; j < count; ++j) {
      uint64_t id;
      UNILOG_RETURN_NOT_OK(dec.GetVarint64(&id));
      if (id >= index.file_names_.size()) {
        return Status::Corruption("etwin index: bad file id");
      }
      files.insert(static_cast<uint32_t>(id));
    }
  }
  if (!dec.AtEnd()) return Status::Corruption("etwin index: trailing bytes");
  return index;
}

}  // namespace unilog::etwin
