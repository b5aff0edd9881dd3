#include "obs/json.hpp"

#include <cctype>
#include <cstdlib>

namespace frame::obs {

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto v = value();
    if (!v.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each nesting level is one recursion; cap it so a hostile file
      // fails to parse instead of overflowing the stack.
      if (depth_ == kMaxDepth) return std::nullopt;
      ++depth_;
      auto v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  std::optional<JsonValue> object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (!consume('{')) return std::nullopt;
    if (consume('}')) return v;
    while (true) {
      auto key = string_literal();
      if (!key.has_value() || !consume(':')) return std::nullopt;
      auto member = value();
      if (!member.has_value()) return std::nullopt;
      v.object.emplace_back(std::move(*key), std::move(*member));
      if (consume('}')) return v;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (!consume('[')) return std::nullopt;
    if (consume(']')) return v;
    while (true) {
      auto member = value();
      if (!member.has_value()) return std::nullopt;
      v.array.push_back(std::move(*member));
      if (consume(']')) return v;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<std::string> string_literal() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            pos_ += 4;  // validated but not decoded; good enough here
            out += '?';
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> string_value() {
    auto s = string_literal();
    if (!s.has_value()) return std::nullopt;
    JsonValue v;
    v.type = JsonValue::Type::kString;
    v.str = std::move(*s);
    return v;
  }

  std::optional<JsonValue> boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      v.boolean = true;
      return v;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return v;
    }
    return std::nullopt;
  }

  std::optional<JsonValue> null() {
    if (text_.substr(pos_, 4) != "null") return std::nullopt;
    pos_ += 4;
    return JsonValue{};
  }

  std::optional<JsonValue> number() {
    const char* start = text_.data() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) return std::nullopt;
    pos_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = d;
    return v;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace frame::obs
