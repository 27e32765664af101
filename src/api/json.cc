#include "api/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace fecsched::api {

namespace {

[[noreturn]] void fail(std::string_view where, const std::string& what) {
  throw std::invalid_argument("json: " + std::string(where) + ": " + what);
}

std::string kind_name(Json::Kind k) {
  switch (k) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return "bool";
    case Json::Kind::kNumber: return "number";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray: return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Recursive-descent parser over a string_view with byte offsets in
/// error messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    throw JsonParseError(pos_, what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) error(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (literal("true")) return Json(true);
        error("invalid literal");
      case 'f':
        if (literal("false")) return Json(false);
        error("invalid literal");
      case 'n':
        if (literal("null")) return Json();
        error("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (consume('}')) return obj;
    do {
      skip_ws();
      if (peek() != '"') error("expected object key string");
      std::string key = parse_string();
      expect(':');
      if (obj.find(key) != nullptr) error("duplicate key '" + key + "'");
      obj.set(std::move(key), parse_value());
    } while (consume(','));
    expect('}');
    return obj;
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (consume(']')) return arr;
    do {
      arr.push_back(parse_value());
    } while (consume(','));
    expect(']');
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        error("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else error("invalid \\u escape digit");
          }
          // Encode as UTF-8 (surrogate pairs unsupported — the spec
          // vocabulary is ASCII; reject rather than mis-encode).
          if (code >= 0xD800 && code <= 0xDFFF)
            error("surrogate \\u escapes are not supported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: error("invalid escape character");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // JSON forbids leading zeros ("01"): a zero may only stand alone.
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9')
      error("leading zeros are not allowed");
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) error("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) error("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) error("digits required in exponent");
    }
    return Json::number_token(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::integer(std::uint64_t v) { return number_token(std::to_string(v)); }

Json Json::number_token(std::string token) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.text_ = std::move(token);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool(std::string_view where) const {
  if (kind_ != Kind::kBool)
    fail(where, "expected bool, got " + kind_name(kind_));
  return bool_;
}

double Json::as_double(std::string_view where) const {
  if (kind_ != Kind::kNumber)
    fail(where, "expected number, got " + kind_name(kind_));
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text_.c_str(), &end);
  if (end == text_.c_str() || *end != '\0')
    fail(where, "malformed number token '" + text_ + "'");
  return v;
}

std::uint64_t Json::as_uint64(std::string_view where) const {
  if (kind_ != Kind::kNumber)
    fail(where, "expected integer, got " + kind_name(kind_));
  if (text_.find_first_of(".eE-") != std::string::npos)
    fail(where, "expected non-negative integer, got '" + text_ + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text_.c_str(), &end, 10);
  if (end == text_.c_str() || *end != '\0' || errno == ERANGE)
    fail(where, "integer out of range: '" + text_ + "'");
  return static_cast<std::uint64_t>(v);
}

const std::string& Json::as_string(std::string_view where) const {
  if (kind_ != Kind::kString)
    fail(where, "expected string, got " + kind_name(kind_));
  return text_;
}

const std::vector<Json>& Json::as_array(std::string_view where) const {
  if (kind_ != Kind::kArray)
    fail(where, "expected array, got " + kind_name(kind_));
  return items_;
}

const Json::Members& Json::as_object(std::string_view where) const {
  if (kind_ != Kind::kObject)
    fail(where, "expected object, got " + kind_name(kind_));
  return members_;
}

void Json::push_back(Json value) {
  if (kind_ != Kind::kArray) fail("push_back", "not an array");
  items_.push_back(std::move(value));
}

void Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) fail("set", "not an object");
  members_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr)
    throw std::invalid_argument("json: missing key \"" + std::string(key) +
                                "\"");
  return *v;
}

void Json::check_keys(std::string_view where,
                      std::initializer_list<std::string_view> allowed) const {
  for (const auto& [key, value] : as_object(where))
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end())
      fail(where, "unknown key \"" + key + "\"");
}

std::string Json::format_double(double d) {
  // JSON has no infinity/nan tokens; the spec layer never produces them,
  // but degrade to 0 rather than emit invalid JSON (and keep the
  // integral fast path below UB-free).
  if (!std::isfinite(d)) return "0";
  // Integral values print as plain integers (25, 4000) — %g would give
  // 4e+03 — and every integer below 2^53 survives the strtod round trip.
  // The range check must precede the cast: long long overflow is UB.
  if (d > -1e15 && d < 1e15 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    char ibuf[32];
    std::snprintf(ibuf, sizeof ibuf, "%.0f", d);
    return ibuf;
  }
  // Shortest %g form that strtod maps back to the same double: try
  // increasing precision; 17 significant digits always round-trips.
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += text_; break;
    case Kind::kString: escape_into(out, text_); break;
    case Kind::kArray: {
      out += '[';
      // Arrays of scalars stay on one line even when pretty-printing
      // (sweep axes read better as [0.02, 0.05] than one-per-line).
      bool scalars = true;
      for (const Json& v : items_)
        scalars = scalars && v.kind_ != Kind::kArray && v.kind_ != Kind::kObject;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += indent > 0 && scalars ? ", " : ",";
        if (!scalars) newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!scalars && !items_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        escape_into(out, members_[i].first);
        out += ':';
        if (indent > 0) out += ' ';
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::pair<std::size_t, std::size_t> json_line_col(std::string_view text,
                                                  std::size_t offset) noexcept {
  const std::size_t end = std::min(offset, text.size());
  std::size_t line = 1, col = 1;
  for (std::size_t i = 0; i < end; ++i) {
    if (text[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return {line, col};
}

}  // namespace fecsched::api
