// Minimal JSON document model for the scenario API (src/api/).
//
// The scenario layer needs exactly three things from JSON: parse a spec
// file with precise errors, serialize a spec canonically (so that
// spec -> JSON -> spec -> JSON is a byte-for-byte fixed point), and
// carry 64-bit seeds without losing precision.  The standard library has
// no JSON; rather than pull a dependency into a dependency-free tree,
// this is a ~200-line recursive-descent implementation of the subset the
// API uses (every value kind, string escapes, \uXXXX as UTF-8).
//
// Numbers keep their source token verbatim: a seed like
// 18446744073709551615 is not representable as a double, so Json stores
// the raw text and converts on access (as_double / as_uint64).  Values
// built programmatically are formatted canonically (%.17g for doubles —
// the shortest-round-trip-safe fixed form — and decimal for integers),
// which is what makes serialization a fixed point.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fecsched::api {

/// Parse failure with the byte offset of the offending character.  The
/// message keeps the legacy "json: offset N: ..." text; callers that know
/// the source text can turn the offset into line:col (json_line_col).
class JsonParseError : public std::invalid_argument {
 public:
  JsonParseError(std::size_t offset, const std::string& what)
      : std::invalid_argument("json: offset " + std::to_string(offset) +
                              ": " + what),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// 1-based (line, column) of a byte offset in `text`, counting '\n' line
/// breaks.  Offsets past the end report the position just after the last
/// character (where "unexpected end of input" points).
[[nodiscard]] std::pair<std::size_t, std::size_t> json_line_col(
    std::string_view text, std::size_t offset) noexcept;

/// One JSON value.  Objects preserve insertion order so serialization is
/// deterministic.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Members = std::vector<std::pair<std::string, Json>>;

  Json() noexcept : kind_(Kind::kNull) {}
  explicit Json(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}
  explicit Json(double d) : kind_(Kind::kNumber), text_(format_double(d)) {}
  explicit Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  explicit Json(const char* s) : Json(std::string(s)) {}

  /// Integer constructor (kept off the overload set so callers are
  /// explicit about 64-bit fidelity).
  [[nodiscard]] static Json integer(std::uint64_t v);
  /// Number from a raw (already validated) JSON number token.
  [[nodiscard]] static Json number_token(std::string token);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }

  // Typed accessors; each throws std::invalid_argument naming `where`
  // (a key path like "channel.p") when the kind does not match.
  [[nodiscard]] bool as_bool(std::string_view where) const;
  [[nodiscard]] double as_double(std::string_view where) const;
  [[nodiscard]] std::uint64_t as_uint64(std::string_view where) const;
  [[nodiscard]] const std::string& as_string(std::string_view where) const;
  [[nodiscard]] const std::vector<Json>& as_array(std::string_view where) const;
  [[nodiscard]] const Members& as_object(std::string_view where) const;

  // Mutation (builders).
  void push_back(Json value);                       ///< arrays
  void set(std::string key, Json value);            ///< objects (appends)
  [[nodiscard]] const Json* find(std::string_view key) const;  ///< objects
  [[nodiscard]] Json* find(std::string_view key);

  // Strict readers: at() throws std::invalid_argument naming `key` when
  // the object has no such member; check_keys() throws naming `where`
  // and the first member whose key is not in `allowed`.
  [[nodiscard]] const Json& at(std::string_view key) const;
  void check_keys(std::string_view where,
                  std::initializer_list<std::string_view> allowed) const;

  /// Serialize.  indent > 0 pretty-prints with that many spaces per
  /// level; 0 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a complete JSON document (trailing garbage rejected).  Throws
  /// std::invalid_argument with a byte-offset position on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Canonical double formatting used throughout the scenario API:
  /// shortest %g form that round-trips through strtod.
  [[nodiscard]] static std::string format_double(double d);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::string text_;            ///< number token or string payload
  std::vector<Json> items_;     ///< array elements
  Members members_;             ///< object members, insertion order
};

}  // namespace fecsched::api
