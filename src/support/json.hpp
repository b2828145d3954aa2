// Minimal JSON value model, parser and writer.
//
// The NVD publishes vulnerability feeds as JSON; `icsdiv::nvd` loads and
// saves its vulnerability database in a JSON dialect compatible with the
// fields we consume (CVE id, CPE list, CVSS score, published year).  The
// library is self-contained, so we ship a small, strict JSON implementation
// rather than depending on an external one.
//
// Supported: objects, arrays, strings (with \uXXXX escapes, surrogate
// pairs), numbers (doubles and exact 64-bit integers), booleans, null.
// Not supported (by design): comments, NaN/Infinity literals, duplicate-key
// detection (the last value wins, at the first key's position), nesting
// deeper than kMaxJsonDepth (a ParseError, so hostile input cannot exhaust
// the stack).
//
// Canonical form: the text Json::dump() writes — no whitespace between
// tokens, strings escaped exactly as the writer escapes them, numbers
// spelled as the writer spells them, no duplicate keys.  Json::scan()
// validates a document without building it and reports whether it is
// canonical, i.e. whether `Json::parse(text).dump() == text`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/error.hpp"

namespace icsdiv::support {

class Json;

/// Deepest array/object nesting the parser accepts.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Ordered object representation: preserves insertion order so that
/// serialised feeds diff cleanly.  Small objects are searched linearly;
/// past kIndexedSize entries a hash index over the entries keeps insert
/// and lookup O(1), so building or parsing an n-key object is O(n).
class JsonObject {
 public:
  using Entry = std::pair<std::string, Json>;

  JsonObject() = default;
  JsonObject(const JsonObject& other);
  JsonObject& operator=(const JsonObject& other);
  JsonObject(JsonObject&&) noexcept = default;
  JsonObject& operator=(JsonObject&&) noexcept = default;

  /// Inserts `key` at the end, or overwrites its value in place.
  void set(std::string key, Json value);
  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Throws NotFound if the key is absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Returns nullptr if the key is absent.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

 private:
  static constexpr std::size_t kIndexedSize = 8;

  [[nodiscard]] std::size_t find_index(std::string_view key) const noexcept;
  void index_entry(std::size_t entry);
  void rebuild_index();

  std::vector<Entry> entries_;
  /// Open-addressing table of entry positions + 1 (0 = empty slot); its
  /// size is a power of two at least twice the entry count.  Null while
  /// the object has at most kIndexedSize entries.
  std::unique_ptr<std::vector<std::uint32_t>> index_;
};

using JsonArray = std::vector<Json>;

/// What Json::scan learned about a document it validated without
/// building it.
struct JsonScan {
  struct Member {
    std::string key;         ///< decoded
    std::string_view value;  ///< the value's exact text, a view into the scanned text
  };
  bool object = false;          ///< the document is an object
  std::vector<Member> members;  ///< its members in text order, duplicates included
  bool canonical = false;       ///< Json::parse(text).dump() == text
};

/// Json::scan's hook at each top-level member value: given the member's
/// decoded key and the text from the value's first byte to the end of the
/// document, it returns the length of a prefix to skip unscanned, or 0 to
/// scan the value.  A nonzero length vouches that the prefix is an object
/// or array that a full scan accepted, as canonical, as a top-level member
/// value: such a value ends at its own closing bracket and holds no
/// newline, so skipping it leaves the scan's result and its ParseError
/// positions exactly as a full scan of the same text would.
using JsonSkip = std::function<std::size_t(std::string_view key, std::string_view rest)>;

/// A JSON value.  Integers that fit in int64 are kept exact; other numbers
/// are doubles.
class Json {
 public:
  enum class Type { Null, Boolean, Integer, Double, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] Type type() const noexcept;
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::Null; }
  [[nodiscard]] bool is_boolean() const noexcept { return type() == Type::Boolean; }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Type::Integer || type() == Type::Double;
  }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::String; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::Object; }

  // Checked accessors; throw InvalidArgument on type mismatch.
  [[nodiscard]] bool as_boolean() const;
  [[nodiscard]] std::int64_t as_integer() const;
  [[nodiscard]] double as_double() const;  ///< accepts Integer too
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] JsonObject& as_object();

  /// Serialises compactly (no whitespace).
  [[nodiscard]] std::string dump() const;
  /// Serialises with two-space indentation.
  [[nodiscard]] std::string dump_pretty() const;

  /// Parses a complete JSON document; trailing garbage is an error.
  static Json parse(std::string_view text);
  /// Validates a document exactly as parse() does (same grammar, depth
  /// limit and ParseError positions) without building it.  `skip`, when
  /// set, may vouch for top-level member values (see JsonSkip).
  static JsonScan scan(std::string_view text, const JsonSkip& skip = {});

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, JsonArray, JsonObject>
      value_;

  void write(std::string& out, int indent, int depth) const;
  static void write_string(std::string& out, std::string_view s);
};

}  // namespace icsdiv::support
