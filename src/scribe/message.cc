#include "scribe/message.h"

#include "common/coding.h"
#include "common/compress.h"
#include "exec/executor.h"

namespace unilog::scribe {

std::string FrameMessages(const std::vector<std::string>& messages) {
  std::string out;
  for (const auto& m : messages) {
    PutLengthPrefixed(&out, m);
  }
  return out;
}

void AppendFramed(std::string* out, std::string_view message) {
  PutLengthPrefixed(out, message);
}

Status UnframeMessageViews(std::string_view body,
                           std::vector<std::string_view>* out) {
  const size_t before = out->size();
  Decoder dec(body);
  while (!dec.AtEnd()) {
    std::string_view record;
    Status st = dec.GetLengthPrefixed(&record);
    if (!st.ok()) {
      out->resize(before);
      return st;
    }
    out->push_back(record);
  }
  return Status::OK();
}

Result<std::vector<std::string>> UnframeMessages(std::string_view body) {
  std::vector<std::string_view> views;
  UNILOG_RETURN_NOT_OK(UnframeMessageViews(body, &views));
  return std::vector<std::string>(views.begin(), views.end());
}

size_t FramedSize(std::string_view message) {
  size_t len = 1;
  for (uint64_t v = message.size(); v >= 0x80; v >>= 7) ++len;
  return len + message.size();
}

void BuildFramedParts(exec::Executor* exec,
                      const std::vector<std::string_view>& messages,
                      uint64_t target_bytes, std::vector<std::string>* framed,
                      std::vector<std::string>* parts) {
  std::vector<size_t> ends;  // exclusive end index of each part
  uint64_t part_bytes = 0;
  for (size_t i = 0; i < messages.size(); ++i) {
    part_bytes += FramedSize(messages[i]);
    if (part_bytes >= target_bytes) {
      ends.push_back(i + 1);
      part_bytes = 0;
    }
  }
  if (part_bytes > 0) ends.push_back(messages.size());
  framed->resize(ends.size());
  parts->resize(ends.size());
  exec->ParallelFor("mover.build_parts", ends.size(), [&](size_t p) {
    std::string& body = (*framed)[p];
    body.clear();
    for (size_t i = p == 0 ? 0 : ends[p - 1]; i < ends[p]; ++i) {
      PutLengthPrefixed(&body, messages[i]);
    }
    Lz::Pooled().CompressTo(body, &(*parts)[p]);
  });
}

Result<uint64_t> CountFramed(std::string_view body) {
  uint64_t count = 0;
  Decoder dec(body);
  while (!dec.AtEnd()) {
    std::string_view record;
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&record));
    ++count;
  }
  return count;
}

}  // namespace unilog::scribe
