#include "common/text_codec.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace erel::codec {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  // from_chars on an unsigned type takes digits only (no sign, no
  // whitespace) and reports overflow instead of wrapping.
  const char* const end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "0") return false;
  if (text == "1") return true;
  return std::nullopt;
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  const std::string copy(text);  // strtod needs a terminator
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return v;
}

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render_hexfloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool LineScanner::next(std::string_view& line) {
  if (rest_.empty()) return false;
  const std::size_t nl = rest_.find('\n');
  if (nl == std::string_view::npos) {
    line = rest_;
    rest_ = {};
  } else {
    line = rest_.substr(0, nl);
    rest_ = rest_.substr(nl + 1);
  }
  return true;
}

Field split_field(std::string_view line, char sep) {
  const std::size_t at = line.find(sep);
  if (at == std::string_view::npos) return {line, {}};
  return {line.substr(0, at), line.substr(at + 1)};
}

bool add_field(FieldMap& fields, std::string_view line, char sep) {
  const Field field = split_field(line, sep);
  return fields.emplace(std::string(field.name), std::string(field.value))
      .second;
}

void FieldWriter::put(std::string_view name, std::string_view value) const {
  out_ += name;
  out_ += sep_;
  out_ += value;
  out_ += '\n';
}

void FieldWriter::put_u64(std::string_view name, std::uint64_t value) const {
  char buf[20];
  const char* const end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  put(name, std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

std::optional<std::string_view> FieldReader::take(std::string_view name) {
  std::optional<std::string_view> value;
  if (fields_ != nullptr) {
    if (const auto it = fields_->find(name); it != fields_->end()) {
      ++consumed_;
      value = it->second;
    }
  } else if (std::string_view line; lines_->next(line)) {
    const Field field = split_field(line, sep_);
    if (field.name == name) value = field.value;
  }
  ok_ = ok_ && value.has_value();
  return value;
}

}  // namespace erel::codec
