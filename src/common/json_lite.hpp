// The repo's one JSON codec: the string escaper and number writer every
// JSON file it writes goes through, and the reader for every JSON file it
// reads back (Chrome traces, telemetry trees, test assertions).
//
// Writer: append_quoted()/quote() and number() spell the two format
// decisions once, so telemetry trees, trace files, JSONL log records,
// run reports, run_status.json, verification.json and BENCH_*.json all
// escape and print numbers the same way.
//
// Reader: a recursive-descent parser into a small DOM. Every syntax error
// throws std::runtime_error with the byte offset, and so does nesting
// deeper than kMaxDepth, so hostile bytes (a truncated or crafted trace
// file, say) get an error instead of a stack overflow. Numbers keep their
// raw source text (Value::raw) alongside the double, so consumers that
// must not lose integer precision (64-bit nanosecond timestamps, u64
// counters) re-parse the exact digits instead of trusting a double
// round-trip. Not a general-purpose parser: no surrogate-pair decoding
// (non-ASCII \u escapes collapse to '?') and the whole input in memory.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace odcfp::jsonlite {

// ---- writer ----

/// Appends `s` as a quoted JSON string. `"` and `\` are backslashed, \n
/// and \t get their short escapes, every other byte below 0x20 becomes
/// \u00xx, and every other byte (0x7f and UTF-8 included) is copied raw.
inline void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline std::string quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

/// `v` with 17 significant digits, which round-trips any double. JSON has
/// no NaN or infinity, so a non-finite value is written as null.
inline std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- reader ----

/// Deepest array/object nesting the reader accepts. The repo's own files
/// nest at most a few levels per span (Chrome traces 4, telemetry trees 2
/// per span level); anything deeper is refused like a syntax error.
constexpr std::size_t kMaxDepth = 256;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string raw;  ///< Exact source text of a kNumber literal.
  std::string str;
  std::vector<Value> items;                            ///< kArray
  std::vector<std::pair<std::string, Value>> members;  ///< kObject

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  bool has(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return true;
    }
    return false;
  }

  /// Object member lookup; throws when missing so a failed expectation
  /// names the key instead of segfaulting.
  const Value& at(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return v;
    }
    throw std::runtime_error("jsonlite: no member '" + key + "'");
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("jsonlite: " + what + " at offset " +
                             std::to_string(i_));
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  bool consume_word(std::string_view w) {
    if (s_.substr(i_, w.size()) != w) return false;
    i_ += w.size();
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.str = string();
        return v;
      }
      case 't':
        if (!consume_word("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        return Value{};
      default: return number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.type = Value::Type::kBool;
    v.boolean = b;
    return v;
  }

  /// Counts one more level of nesting into an array or object.
  void descend() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
  }

  Value object() {
    expect('{');
    descend();
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++i_;
      --depth_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  Value array() {
    expect('[');
    descend();
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++i_;
      --depth_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) fail("unterminated string");
      char c = s_[i_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      char e = s_[i_++];
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
          if (i_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u hex digit");
            }
          }
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           ((s_[i_] >= '0' && s_[i_] <= '9') || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' ||
            s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start || (i_ == start + 1 && s_[start] == '-')) {
      fail("expected a JSON value");
    }
    const std::string text(s_.substr(start, i_ - start));
    char* end = nullptr;
    Value v;
    v.type = Value::Type::kNumber;
    v.number = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    v.raw = text;
    return v;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;
};

inline Value parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace odcfp::jsonlite
