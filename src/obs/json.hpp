// Minimal recursive-descent JSON reader shared by the obs tooling (the
// Perfetto-export validator in stitch.cpp, frame_analyze's post-mortem
// reader) and the bench-report differ (bench/harness/bench_diff.cpp).  It
// parses standard JSON into a single variant-ish value type; it does not
// aim to be fast, streaming, or byte-for-byte round-trippable (\uXXXX
// escapes are validated but decoded as '?').
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace frame::obs {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with `key`, or nullptr.  Only meaningful for kObject.
  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }
};

/// Parses `text` as one complete JSON document (trailing garbage is an
/// error).  Returns nullopt on any syntax error, and on arrays and objects
/// nested more than 256 deep.
std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace frame::obs
