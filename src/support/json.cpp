#include "support/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace icsdiv::support {

// ---------------------------------------------------------------------------
// JsonObject

JsonObject::JsonObject(const JsonObject& other)
    : entries_(other.entries_),
      index_(other.index_ ? std::make_unique<std::vector<std::uint32_t>>(*other.index_)
                          : nullptr) {}

JsonObject& JsonObject::operator=(const JsonObject& other) {
  if (this != &other) *this = JsonObject(other);
  return *this;
}

void JsonObject::set(std::string key, Json value) {
  if (const std::size_t found = find_index(key); found != entries_.size()) {
    entries_[found].second = std::move(value);
    return;
  }
  entries_.emplace_back(std::move(key), std::move(value));
  if (index_) {
    if (2 * entries_.size() > index_->size()) {
      rebuild_index();
    } else {
      index_entry(entries_.size() - 1);
    }
  } else if (entries_.size() > kIndexedSize) {
    rebuild_index();
  }
}

bool JsonObject::contains(std::string_view key) const noexcept { return find(key) != nullptr; }

const Json& JsonObject::at(std::string_view key) const {
  if (const Json* found = find(key)) return *found;
  throw NotFound("JsonObject::at: missing key '" + std::string(key) + "'");
}

const Json* JsonObject::find(std::string_view key) const noexcept {
  const std::size_t found = find_index(key);
  return found != entries_.size() ? &entries_[found].second : nullptr;
}

/// The entry holding `key`, or entries_.size() when there is none.
std::size_t JsonObject::find_index(std::string_view key) const noexcept {
  if (!index_) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) return i;
    }
    return entries_.size();
  }
  const std::vector<std::uint32_t>& slots = *index_;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t slot = std::hash<std::string_view>{}(key) & mask;; slot = (slot + 1) & mask) {
    if (slots[slot] == 0) return entries_.size();
    if (entries_[slots[slot] - 1].first == key) return slots[slot] - 1;
  }
}

void JsonObject::index_entry(std::size_t entry) {
  std::vector<std::uint32_t>& slots = *index_;
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(entries_[entry].first) & mask;
  while (slots[slot] != 0) slot = (slot + 1) & mask;
  slots[slot] = static_cast<std::uint32_t>(entry + 1);
}

void JsonObject::rebuild_index() {
  std::size_t size = 32;
  while (size < 4 * entries_.size()) size *= 2;
  index_ = std::make_unique<std::vector<std::uint32_t>>(size, 0);
  for (std::size_t i = 0; i < entries_.size(); ++i) index_entry(i);
}

// ---------------------------------------------------------------------------
// Json accessors

Json::Type Json::type() const noexcept {
  switch (value_.index()) {
    case 0: return Type::Null;
    case 1: return Type::Boolean;
    case 2: return Type::Integer;
    case 3: return Type::Double;
    case 4: return Type::String;
    case 5: return Type::Array;
    default: return Type::Object;
  }
}

namespace {
[[noreturn]] void type_mismatch(const char* wanted) {
  throw InvalidArgument(std::string("Json: value is not ") + wanted);
}
}  // namespace

bool Json::as_boolean() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  type_mismatch("a boolean");
}

std::int64_t Json::as_integer() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    if (std::nearbyint(*d) == *d) return static_cast<std::int64_t>(*d);
  }
  type_mismatch("an integer");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return static_cast<double>(*i);
  type_mismatch("a number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  type_mismatch("a string");
}

const JsonArray& Json::as_array() const {
  if (const auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_mismatch("an array");
}

const JsonObject& Json::as_object() const {
  if (const auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_mismatch("an object");
}

JsonArray& Json::as_array() {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  type_mismatch("an array");
}

JsonObject& Json::as_object() {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  type_mismatch("an object");
}

// ---------------------------------------------------------------------------
// Writer

void Json::write_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
  };
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Boolean: out += (std::get<bool>(value_) ? "true" : "false"); break;
    case Type::Integer: out += std::to_string(std::get<std::int64_t>(value_)); break;
    case Type::Double: {
      const double d = std::get<double>(value_);
      if (!std::isfinite(d)) throw InvalidArgument("Json::dump: non-finite number");
      std::array<char, 32> buf{};
      auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
      ensure(ec == std::errc(), "Json::write", "to_chars failed");
      out.append(buf.data(), ptr);
      break;
    }
    case Type::String: write_string(out, std::get<std::string>(value_)); break;
    case Type::Array: {
      const auto& arr = std::get<JsonArray>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const auto& obj = std::get<JsonObject>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        write_string(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// Parser
//
// One recursive-descent parser in two modes.  Build mode (kBuild) returns
// the DOM.  Scan mode builds nothing: values parse to an empty Value,
// strings are not decoded, and the parser instead tracks whether the text
// is canonical and records the spans of the top-level members.  Both modes
// run the same grammar checks in the same order, so they accept the same
// texts and fail with the same ParseError positions.

namespace {

template <bool kBuild>
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// What a value parses to: the DOM node, or nothing in scan mode.
  using Value = std::conditional_t<kBuild, Json, std::monostate>;

  Value parse_document() {
    skip_whitespace();
    Value value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

  JsonScan scan_document()
    requires(!kBuild)
  {
    JsonScan scan;
    members_ = &scan.members;
    skip_whitespace();
    scan.object = !eof() && text_[pos_] == '{';
    (void)parse_document();
    scan.canonical = canonical_;
    return scan;
  }

 private:
  /// A string token: decoded in build mode, the raw text between the
  /// quotes in scan mode.
  using String = std::conditional_t<kBuild, std::string, std::string_view>;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
  // Whether the text so far is canonical; only scan mode reports it and
  // runs the costlier checks (duplicate keys, double spellings).
  bool canonical_ = true;
  std::vector<JsonScan::Member>* members_ = nullptr;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON: " + message, line_, pos_ - line_start_ + 1);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  void expect(char c) {
    if (advance() != c) fail(std::string("expected '") + c + "'");
  }

  void skip_whitespace() {
    const std::size_t start = pos_;
    while (!eof()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
    if (pos_ != start) canonical_ = false;
  }

  template <typename T>
  static Value value_of([[maybe_unused]] T&& value) {
    if constexpr (kBuild) {
      return Json(std::forward<T>(value));
    } else {
      return {};
    }
  }

  /// `depth` counts the containers enclosing the value.
  Value parse_value(std::size_t depth) {
    switch (peek()) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return value_of(parse_string());
      case 't': parse_literal("true"); return value_of(true);
      case 'f': parse_literal("false"); return value_of(false);
      case 'n': parse_literal("null"); return value_of(nullptr);
      default: return parse_number();
    }
  }

  void parse_literal(std::string_view literal) {
    for (char c : literal) {
      if (eof() || advance() != c) fail("invalid literal");
    }
  }

  void check_depth(std::size_t depth) const {
    if (depth > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    }
  }

  Value parse_object(std::size_t depth) {
    check_depth(depth);
    expect('{');
    [[maybe_unused]] std::conditional_t<kBuild, JsonObject, std::monostate> object;
    [[maybe_unused]] std::conditional_t<kBuild, std::monostate, KeySet> keys;
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return value_of(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      const std::size_t key_start = pos_;
      String key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      const std::size_t value_start = pos_;
      if constexpr (kBuild) {
        object.set(std::move(key), parse_value(depth));
      } else {
        (void)parse_value(depth);
        // Canonical text has no duplicate keys: dump() would drop one.
        // Raw spans compare exactly here, because canonical escaping is
        // one-to-one (a non-canonical escape already cleared canonical_).
        if (canonical_ && !keys.insert(key)) canonical_ = false;
        if (depth == 1 && members_ != nullptr) {
          members_->push_back({decode_key(key, key_start),
                               text_.substr(value_start, pos_ - value_start)});
        }
      }
      skip_whitespace();
      char c = advance();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return value_of(std::move(object));
  }

  Value parse_array(std::size_t depth) {
    check_depth(depth);
    expect('[');
    [[maybe_unused]] std::conditional_t<kBuild, JsonArray, std::monostate> array;
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return value_of(std::move(array));
    }
    while (true) {
      skip_whitespace();
      if constexpr (kBuild) {
        array.push_back(parse_value(depth));
      } else {
        (void)parse_value(depth);
      }
      skip_whitespace();
      char c = advance();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return value_of(std::move(array));
  }

  /// Scan mode's duplicate-key check: linear over a few keys, hashed past.
  class KeySet {
   public:
    /// False when `key` was already present.
    bool insert(std::string_view key) {
      if (count_ < small_.size()) {
        for (std::size_t i = 0; i < count_; ++i) {
          if (small_[i] == key) return false;
        }
        small_[count_++] = key;
        return true;
      }
      if (!large_) {
        large_ = std::make_unique<std::unordered_set<std::string_view>>(small_.begin(),
                                                                        small_.end());
      }
      return large_->insert(key).second;
    }

   private:
    std::array<std::string_view, 8> small_;
    std::size_t count_ = 0;
    std::unique_ptr<std::unordered_set<std::string_view>> large_;
  };

  /// The decoded text of a raw scanned key starting at `quote`.
  [[nodiscard]] std::string decode_key(std::string_view raw, std::size_t quote) const {
    if (raw.find('\\') == std::string_view::npos) return std::string(raw);
    return Json::parse(text_.substr(quote, raw.size() + 2)).as_string();
  }

  String parse_string() {
    expect('"');
    std::string out;  // scan mode appends only the escapes, then drops it
    const std::size_t start = pos_;
    while (true) {
      // Plain bytes in bulk: nothing below 0x20 (so no newline), no quote
      // and no backslash.
      std::size_t run = pos_;
      while (run < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[run]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++run;
      }
      if constexpr (kBuild) out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      char c = advance();
      if (c == '"') break;
      if (c == '\\') {
        char esc = advance();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/':
            out.push_back('/');
            canonical_ = false;  // dump() writes '/' bare
            break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            const std::size_t hex = pos_;
            const unsigned code = parse_unicode_escape();
            append_utf8(out, code);
            if (!kBuild && !canonical_unicode_escape(text_.substr(hex, pos_ - hex), code)) {
              canonical_ = false;
            }
            break;
          }
          default: fail("invalid escape sequence");
        }
      } else {
        fail("unescaped control character in string");
      }
    }
    if constexpr (kBuild) {
      return out;
    } else {
      return text_.substr(start, pos_ - 1 - start);
    }
  }

  /// dump() writes \uXXXX (four lowercase hex digits) only for control
  /// characters without a short escape; every other character it writes
  /// bare or as \" \\ \b \f \n \r \t.
  static bool canonical_unicode_escape(std::string_view digits, unsigned code) {
    if (code >= 0x20 || code == '\b' || code == '\f' || code == '\n' || code == '\r' ||
        code == '\t') {
      return false;
    }
    std::array<char, 8> buf{};
    std::snprintf(buf.data(), buf.size(), "%04x", code);
    return digits == std::string_view(buf.data(), 4);
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  /// The code point of a \u escape (a surrogate pair spans two).
  unsigned parse_unicode_escape() {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: a low one must follow
      if (advance() != '\\' || advance() != 'u') fail("unpaired surrogate");
      unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') advance();
    if (eof()) fail("truncated number");
    if (peek() == '0') {
      advance();
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    } else {
      fail("invalid number");
    }
    bool is_integer = true;
    if (!eof() && text_[pos_] == '.') {
      is_integer = false;
      advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid fraction");
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      advance();
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_integer) {
      std::int64_t value = 0;
      auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        // The grammar admits no leading zeros, so std::to_string gives
        // back every in-range integer token except "-0".
        if (token == "-0") canonical_ = false;
        return value_of(value);
      }
      // Fall through to double on overflow.
    }
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("unparseable number");
    if (!kBuild && canonical_) {
      std::array<char, 32> buf{};
      const auto written = std::to_chars(buf.data(), buf.data() + buf.size(), value);
      canonical_ = token == std::string_view(buf.data(), written.ptr);
    }
    return value_of(value);
  }
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser<true>(text).parse_document(); }

JsonScan Json::scan(std::string_view text) { return Parser<false>(text).scan_document(); }

}  // namespace icsdiv::support
