#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/common.hpp"

namespace alge::json {

namespace {

[[noreturn]] void fail(const char* what, std::size_t pos) {
  throw json_error(strfmt("json: %s at offset %zu", what, pos));
}

/// Canonical number text: integers in [-2^53, 2^53] print without an
/// exponent or fraction; everything else uses %.17g, which round-trips a
/// finite double exactly through strtod.
void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    throw json_error("json: cannot serialize a non-finite number");
  }
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (d == std::floor(d) && d >= -kExact && d <= kExact) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
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
          out += ch;
        }
    }
  }
  out += '"';
}

void append_value(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::kNumber: append_number(out, v.as_double()); break;
    case Value::Kind::kString: append_string(out, v.as_string()); break;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& e : v.as_array()) {
        if (!first) out += ',';
        first = false;
        append_value(out, e);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        append_string(out, k);
        out += ':';
        append_value(out, e);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character", pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // One recursion per level: bound it, or a frame of '[' bytes
        // overflows the stack.
        if (depth_ == kMaxDepth) fail("containers nested too deep", pos_);
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
        if (literal("true")) return Value(true);
        fail("invalid literal", pos_);
      case 'f':
        if (literal("false")) return Value(false);
        fail("invalid literal", pos_);
      case 'n':
        if (literal("null")) return Value(nullptr);
        fail("invalid literal", pos_);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) return obj;
      expect(',');
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(']')) return arr;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string", pos_ - 1);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) fail("truncated \\u escape", pos_);
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape", pos_ - 1);
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // engine strings are ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("invalid escape", pos_ - 1);
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("invalid number", start);
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number", start);
    // Out of double range: a non-finite value could not be dumped again.
    if (!std::isfinite(d)) fail("number out of range", start);
    return Value(d);
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) throw json_error("json: value is not a bool");
  return std::get<bool>(v_);
}

double Value::as_double() const {
  if (!is_number()) throw json_error("json: value is not a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) throw json_error("json: value is not a string");
  return std::get<std::string>(v_);
}

const Value::Array& Value::as_array() const {
  if (!is_array()) throw json_error("json: value is not an array");
  return std::get<Array>(v_);
}

Value::Array& Value::as_array() {
  if (!is_array()) throw json_error("json: value is not an array");
  return std::get<Array>(v_);
}

const Value::Object& Value::as_object() const {
  if (!is_object()) throw json_error("json: value is not an object");
  return std::get<Object>(v_);
}

Value& Value::push_back(Value v) {
  as_array().push_back(std::move(v));
  return *this;
}

Value& Value::set(std::string key, Value v) {
  if (!is_object()) throw json_error("json: value is not an object");
  std::get<Object>(v_).emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw json_error(strfmt("json: missing key \"%.*s\"",
                            static_cast<int>(key.size()), key.data()));
  }
  return *v;
}

std::string Value::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace alge::json
