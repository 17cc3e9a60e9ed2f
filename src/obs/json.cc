#include "obs/json.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace rda::obs {

void JsonWriter::Separate() {
  Level& level = levels_.back();
  if (!level.empty) {
    out_ += ',';
  }
  level.empty = false;
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(levels_.size() * static_cast<size_t>(indent_), ' ');
  }
}

void JsonWriter::BeforeValue() {
  if (levels_.empty()) {
    RDA_CHECK(out_.empty(), "JSON document already has its value");
  } else if (levels_.back().object) {
    RDA_CHECK(key_pending_, "JSON object value without a key");
    key_pending_ = false;
  } else {
    Separate();
  }
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  RDA_CHECK(!levels_.empty() && levels_.back().object && !key_pending_,
            "JSON key outside an object");
  Separate();
  Quote(key);
  out_ += indent_ > 0 ? ": " : ":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket, bool object) {
  BeforeValue();
  out_ += bracket;
  levels_.push_back(Level{object, true});
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket, bool object) {
  RDA_CHECK(!levels_.empty() && levels_.back().object == object &&
                !key_pending_,
            "unbalanced JSON container");
  const bool empty = levels_.back().empty;
  levels_.pop_back();
  if (!empty && indent_ > 0) {
    out_ += '\n';
    out_.append(levels_.size() * static_cast<size_t>(indent_), ' ');
  }
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  Quote(value);
  return *this;
}

void JsonWriter::Quote(std::string_view value) {
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out_ += buffer;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  RDA_CHECK(decimals >= 0 && decimals <= 17, "JSON decimals out of range");
  return Number(/*fixed=*/true, decimals, value);
}

JsonWriter& JsonWriter::Significant(double value, int digits) {
  RDA_CHECK(digits >= 1 && digits <= 17, "JSON digits out of range");
  return Number(/*fixed=*/false, digits, value);
}

JsonWriter& JsonWriter::Number(bool fixed, int precision, double value) {
  if (!std::isfinite(value)) {
    return Null();
  }
  char buffer[352];  // "%.*f" of DBL_MAX: 309 integer digits + decimals.
  std::snprintf(buffer, sizeof(buffer), fixed ? "%.*f" : "%.*g", precision,
                value);
  return Raw(buffer);
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

}  // namespace rda::obs
