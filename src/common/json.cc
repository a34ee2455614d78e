#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace unilog {

namespace {
const Json& SharedNull() {
  static const Json* kNull = new Json();
  return *kNull;
}
}  // namespace

Json Json::Bool(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::Int(int64_t v) { return Number(static_cast<double>(v)); }

Json Json::Str(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json& Json::operator[](const std::string& key) const {
  if (type_ == Type::kObject) {
    auto it = object_.find(key);
    if (it != object_.end()) return it->second;
  }
  return SharedNull();
}

const Json& Json::at(size_t i) const {
  if (type_ == Type::kArray && i < array_.size()) return array_[i];
  return SharedNull();
}

void Json::Set(const std::string& key, Json value) {
  type_ = Type::kObject;
  object_[key] = std::move(value);
}

void Json::Push(Json value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
}

namespace {

void DumpString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      if (number_ == std::floor(number_) && std::abs(number_) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
        *out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        *out += buf;
      }
      break;
    }
    case Type::kString:
      DumpString(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        DumpString(k, out);
        out->push_back(':');
        v.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    Json value;
    UNILOG_RETURN_NOT_OK(ParseValue(&value));
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::Corruption("json: trailing garbage");
    }
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Status::Corruption("json: eof");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse; bounding the depth keeps hostile input from
        // exhausting the stack.
        if (depth_ >= Json::kMaxNestingDepth) {
          return Status::Corruption("json: nesting too deep");
        }
        ++depth_;
        Status st = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return st;
      }
      case '"': {
        std::string s;
        UNILOG_RETURN_NOT_OK(ParseString(&s));
        *out = Json::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = Json::Bool(true);
          return Status::OK();
        }
        return Status::Corruption("json: bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = Json::Bool(false);
          return Status::OK();
        }
        return Status::Corruption("json: bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = Json::Null();
          return Status::OK();
        }
        return Status::Corruption("json: bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Status::Corruption("json: expected string");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::Corruption("json: bad \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Status::Corruption("json: bad hex digit");
              }
            }
            // Encode BMP code point as UTF-8 (surrogate pairs unsupported;
            // they do not occur in the simulated logs).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Status::Corruption("json: bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Status::Corruption("json: unterminated string");
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool any = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
      any = true;
    }
    if (!any) return Status::Corruption("json: expected value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::Corruption("json: bad number: " + token);
    }
    *out = Json::Number(v);
    return Status::OK();
  }

  Status ParseArray(Json* out) {
    Consume('[');
    *out = Json::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json item;
      UNILOG_RETURN_NOT_OK(ParseValue(&item));
      out->Push(std::move(item));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Status::Corruption("json: expected ','");
    }
  }

  Status ParseObject(Json* out) {
    Consume('{');
    *out = Json::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      UNILOG_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Status::Corruption("json: expected ':'");
      Json value;
      UNILOG_RETURN_NOT_OK(ParseValue(&value));
      out->Set(key, std::move(value));
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Status::Corruption("json: expected ','");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers open at pos_
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  Parser p(text);
  return p.ParseDocument();
}

}  // namespace unilog
