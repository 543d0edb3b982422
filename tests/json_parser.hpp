// Minimal recursive-descent JSON parser for tests — just enough to
// validate tool and encoder output with real syntax checking (quotes,
// escapes, nesting), independent of the encoders under test.
#pragma once

#include <cctype>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pico {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing content");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::String;
      v.string = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      literal("null");
      return {};
    }
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // validated but not decoded; ASCII-only output
            out.push_back('?');
            break;
          }
          default: throw std::runtime_error("bad escape char");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else {
      literal("false");
      v.boolean = false;
    }
    return v;
  }

  void literal(const char* text) {
    const std::size_t n = std::string(text).size();
    if (text_.compare(pos_, n, text) != 0) {
      throw std::runtime_error(std::string("expected ") + text);
    }
    pos_ += n;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace pico
