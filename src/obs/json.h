#ifndef RDA_OBS_JSON_H_
#define RDA_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rda::obs {

// Streaming JSON writer: the one place the tree turns values into JSON
// text. The caller opens and closes containers and names keys; the writer
// places every comma, colon and quote, escapes strings, and writes a
// non-finite double as null (JSON has no inf/nan). Misuse (a key outside
// an object, a value without a key inside one, an unbalanced close) fails
// an always-on check instead of producing malformed output. `indent` 0
// writes compact JSON; a positive indent puts each element on its own
// line, nested by that many spaces per level.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& BeginObject() { return Open('{', true); }
  JsonWriter& EndObject() { return Close('}', true); }
  JsonWriter& BeginArray() { return Open('[', false); }
  JsonWriter& EndArray() { return Close(']', false); }
  // Names the next value of the enclosing object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value) { return Raw(std::to_string(value)); }
  JsonWriter& Uint(uint64_t value) { return Raw(std::to_string(value)); }
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  // `value` with `decimals` digits after the point (printf "%.*f").
  JsonWriter& Fixed(double value, int decimals);
  // `value` with `digits` significant digits (printf "%.*g").
  JsonWriter& Significant(double value, int digits);
  // Splices one value that is already JSON text (another exporter's
  // output, or a literal) as the next value.
  JsonWriter& Raw(std::string_view json);

  // The text so far; complete once every container is closed.
  const std::string& str() const { return out_; }

 private:
  struct Level {
    bool object = false;
    bool empty = true;
  };

  // Comma and line break before the next element of the innermost
  // container.
  void Separate();
  void BeforeValue();
  void Quote(std::string_view value);
  JsonWriter& Open(char bracket, bool object);
  JsonWriter& Close(char bracket, bool object);
  JsonWriter& Number(bool fixed, int precision, double value);

  std::string out_;
  const int indent_;
  std::vector<Level> levels_;
  bool key_pending_ = false;
};

}  // namespace rda::obs

#endif  // RDA_OBS_JSON_H_
