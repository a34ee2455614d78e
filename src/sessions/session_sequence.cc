#include "sessions/session_sequence.h"

#include <cstdio>

#include "common/coding.h"
#include "common/compress.h"
#include "common/utf8.h"

namespace unilog::sessions {

size_t SessionSequence::EventCount() const { return Utf8Length(sequence); }

bool SessionSequence::operator==(const SessionSequence& other) const {
  return user_id == other.user_id && session_id == other.session_id &&
         ip == other.ip && sequence == other.sequence &&
         duration_seconds == other.duration_seconds;
}

Result<SessionSequence> EncodeSession(const Session& session,
                                      const EventDictionary& dict) {
  SessionSequence seq;
  seq.user_id = session.user_id;
  seq.session_id = session.session_id;
  seq.ip = session.ip;
  seq.duration_seconds = session.DurationSeconds();
  UNILOG_ASSIGN_OR_RETURN(seq.sequence, dict.EncodeNames(session.event_names));
  return seq;
}

void AppendSequenceRecord(std::string* out, const SessionSequence& seq) {
  PutSignedVarint64(out, seq.user_id);
  PutLengthPrefixed(out, seq.session_id);
  PutLengthPrefixed(out, seq.ip);
  PutLengthPrefixed(out, seq.sequence);
  PutVarint64(out, static_cast<uint64_t>(seq.duration_seconds));
}

Status SequenceRecordReader::Next(SessionSequence* out) {
  if (pos_ >= body_.size()) return Status::NotFound("end of stream");
  Decoder dec(body_.substr(pos_));
  int64_t user_id;
  UNILOG_RETURN_NOT_OK(dec.GetSignedVarint64(&user_id));
  std::string_view session_id, ip, sequence;
  UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&session_id));
  UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&ip));
  UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&sequence));
  uint64_t duration;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&duration));
  pos_ += dec.position();
  out->user_id = user_id;
  out->session_id = std::string(session_id);
  out->ip = std::string(ip);
  out->sequence = std::string(sequence);
  out->duration_seconds = static_cast<int32_t>(duration);
  return Status::OK();
}

std::string SequenceStore::PartitionDir(TimeMs date) {
  return std::string(kRoot) + "/" + DateString(date);
}

Status SequenceStore::WriteDaily(hdfs::MiniHdfs* fs, TimeMs date,
                                 const std::vector<SessionSequence>& sequences,
                                 const EventDictionary& dict,
                                 const WriteOptions& options) {
  std::string dir = PartitionDir(date);
  if (fs->Exists(dir)) {
    return Status::AlreadyExists("partition exists: " + dir);
  }
  UNILOG_RETURN_NOT_OK(fs->Mkdirs(dir));
  UNILOG_RETURN_NOT_OK(fs->WriteFile(dir + "/_dictionary", dict.Serialize()));

  std::string body;
  uint64_t part = 0;
  auto flush = [&]() -> Status {
    if (body.empty()) return Status::OK();
    char name[32];
    std::snprintf(name, sizeof(name), "part-%05llu",
                  static_cast<unsigned long long>(part++));
    UNILOG_RETURN_NOT_OK(fs->WriteFile(dir + "/" + name, Lz::Compress(body)));
    body.clear();
    return Status::OK();
  };
  for (const auto& seq : sequences) {
    AppendSequenceRecord(&body, seq);
    if (body.size() >= options.target_file_bytes) {
      UNILOG_RETURN_NOT_OK(flush());
    }
  }
  UNILOG_RETURN_NOT_OK(flush());
  // Success marker, Hadoop-style.
  return fs->WriteFile(dir + "/_SUCCESS", "");
}

Result<EventDictionary> SequenceStore::LoadDictionary(
    const hdfs::MiniHdfs& fs, TimeMs date) {
  UNILOG_ASSIGN_OR_RETURN(
      std::string data, fs.ReadFile(PartitionDir(date) + "/_dictionary"));
  return EventDictionary::Deserialize(data);
}

Result<std::vector<SessionSequence>> SequenceStore::LoadDaily(
    const hdfs::MiniHdfs& fs, TimeMs date) {
  std::vector<SessionSequence> out;
  UNILOG_RETURN_NOT_OK(
      ReadDir(fs, PartitionDir(date), [&out](const SessionSequence& seq) {
        out.push_back(seq);
        return Status::OK();
      }));
  return out;
}

Status SequenceStore::ReadDir(
    const hdfs::MiniHdfs& fs, const std::string& dir,
    const std::function<Status(const SessionSequence&)>& visit) {
  UNILOG_ASSIGN_OR_RETURN(auto files, fs.ListRecursive(dir));
  for (const auto& file : files) {
    if (hdfs::IsHiddenWarehousePath(dir, file.path)) continue;
    UNILOG_ASSIGN_OR_RETURN(std::string blob, fs.ReadFile(file.path));
    UNILOG_ASSIGN_OR_RETURN(std::string body, Lz::Decompress(blob));
    SequenceRecordReader reader(body);
    SessionSequence seq;
    while (true) {
      Status st = reader.Next(&seq);
      if (st.IsNotFound()) break;
      UNILOG_RETURN_NOT_OK(st);
      UNILOG_RETURN_NOT_OK(visit(seq));
    }
  }
  return Status::OK();
}

}  // namespace unilog::sessions
