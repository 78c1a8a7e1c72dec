#include "mlm/support/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mlm {

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::as_bool() const {
  MLM_CHECK_MSG(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  MLM_CHECK_MSG(kind_ == Kind::Number, "JSON value is not a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  MLM_CHECK_MSG(kind_ == Kind::String, "JSON value is not a string");
  return str_;
}

void JsonValue::push_back(JsonValue v) {
  MLM_CHECK_MSG(kind_ == Kind::Array, "push_back on non-array JSON value");
  arr_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::Array) return arr_.size();
  if (kind_ == Kind::Object) return obj_.size();
  throw Error("size() on non-container JSON value");
}

const JsonValue& JsonValue::at(std::size_t i) const {
  MLM_CHECK_MSG(kind_ == Kind::Array, "at() on non-array JSON value");
  MLM_CHECK_MSG(i < arr_.size(), "JSON array index out of range");
  return arr_[i];
}

const std::vector<JsonValue>& JsonValue::items() const {
  MLM_CHECK_MSG(kind_ == Kind::Array, "items() on non-array JSON value");
  return arr_;
}

void JsonValue::set(const std::string& key, JsonValue v) {
  MLM_CHECK_MSG(kind_ == Kind::Object, "set() on non-object JSON value");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

bool JsonValue::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  const JsonValue* v = find(key);
  MLM_CHECK_MSG(v != nullptr, "missing JSON object key: " + key);
  return *v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  MLM_CHECK_MSG(kind_ == Kind::Object, "find() on non-object JSON value");
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  MLM_CHECK_MSG(kind_ == Kind::Object, "members() on non-object JSON value");
  return obj_;
}

std::string JsonValue::quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonValue::number_repr(double v) {
  MLM_CHECK_MSG(std::isfinite(v),
                "JSON cannot represent NaN or infinite numbers");
  // Integers in the exactly-representable range print without a decimal
  // point so counters and byte totals stay readable and stable.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: out += number_repr(num_); break;
    case Kind::String: out += quote(str_); break;
    case Kind::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        out += quote(obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

// Arrays and objects nest by recursion; deeper documents are rejected
// before they can exhaust the stack.  The repo's own JSON nests a few
// levels deep.
constexpr int kMaxNestingDepth = 512;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth) {
          fail("nesting deeper than " + std::to_string(kMaxNestingDepth));
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (obj.contains(key)) fail("duplicate object key: " + key);
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("raw control character in string");
        }
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Encode the code point as UTF-8.  Surrogate pairs are not
          // needed for the harness's ASCII-dominated artifacts but BMP
          // code points round-trip.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      pos_ = start;
      fail((std::isfinite(v) ? "malformed number: "
                             : "number out of range: ") + token);
    }
    return JsonValue(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

JsonValue json_parse_file(const std::string& path) {
  std::ifstream in(path);
  MLM_CHECK_MSG(in.is_open(), "cannot open JSON file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return json_parse(os.str());
}

void json_write_file(const std::string& path, const JsonValue& value,
                     int indent) {
  std::ofstream out(path);
  MLM_CHECK_MSG(out.is_open(), "cannot open JSON output file: " + path);
  out << value.dump(indent) << '\n';
  out.flush();
  MLM_CHECK_MSG(out.good(), "failed writing JSON file: " + path);
}

}  // namespace mlm
