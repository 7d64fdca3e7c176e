// The one key/value text codec behind every text encoding the simulator's
// results travel in:
//
//   - canonical config fields, `name=value` (sim/config.cpp,
//     sim/sampling.cpp): the result-cache fingerprint input and the
//     kRunCell payload;
//   - `.erelres` cache entries, `name value` (harness/results.cpp), which
//     are also the kResult payload;
//   - every other daemon protocol message, `name value`
//     (service/protocol.cpp).
//
// One grammar for every reader:
//   integer  decimal digits only: no sign, no whitespace, no overflow
//   bool     exactly "0" or "1"
//   double   a token strtod consumes whole, with no leading whitespace;
//            written "%.17g" (round-trips bit-exactly) or, for fields that
//            ask for it, "%a" hexfloat
//   line     split at its first separator; the value may hold more of them
//   fields   a field set is rejected when a name repeats, when a field the
//            reader asks for is missing or malformed, or when a field is
//            left unread
//
// Field lists are written once per struct as a template walked by both
// visitors, e.g.
//
//   template <class Stats, class Fn>
//   void stats_fields(Stats& s, Fn&& f) { f("cycles", s.cycles); ... }
//
//   stats_fields(stats, FieldWriter(out, ' '));        // serialize
//   FieldReader read(fields); stats_fields(stats, read);  // parse
//   if (!read.ok()) reject;
//
// so a field added to the struct and the list round-trips by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace erel::codec {

[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);
/// parse_u64 narrowed to the unsigned type T: out-of-range is rejected.
template <class T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>);
  const std::optional<std::uint64_t> v = parse_u64(text);
  if (!v || *v > std::numeric_limits<T>::max()) return std::nullopt;
  return static_cast<T>(*v);
}
[[nodiscard]] std::optional<bool> parse_bool(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// "%.17g": the shortest fixed rule that round-trips every double.
[[nodiscard]] std::string render_double(double v);
/// "%a": the exact bit pattern, for doubles that feed a hash.
[[nodiscard]] std::string render_hexfloat(double v);

/// Splits text into '\n'-terminated lines; a trailing unterminated line
/// counts as a line too.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line);
  /// Everything not yet scanned (free-text payload tails).
  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

struct Field {
  std::string_view name;
  std::string_view value;
};

/// "name<sep>value" -> (name, value); a line without `sep` is (line, "").
[[nodiscard]] Field split_field(std::string_view line, char sep);

using FieldMap = std::map<std::string, std::string, std::less<>>;

/// Adds `line`'s field to `fields`; false when its name is already there.
[[nodiscard]] bool add_field(FieldMap& fields, std::string_view line,
                             char sep);

/// Field-list tag: render this double as a hexfloat (see render_hexfloat).
struct Hexfloat {};
inline constexpr Hexfloat kHexfloat{};

/// Serializing visitor: appends "name<sep>value\n" per field.
class FieldWriter {
 public:
  FieldWriter(std::string& out, char sep) : out_(out), sep_(sep) {}

  /// Unsigned integers, bools ("0"/"1"), doubles (%.17g) and strings.
  template <class T>
  void operator()(std::string_view name, const T& v) const {
    if constexpr (std::is_same_v<T, bool>) {
      put(name, v ? "1" : "0");
    } else if constexpr (std::is_same_v<T, double>) {
      put(name, render_double(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      put_u64(name, v);
    } else {
      put(name, std::string_view(v));
    }
  }
  /// Enums travel as their integer value; `max` bounds the reader.
  template <class E>
    requires std::is_enum_v<E>
  void operator()(std::string_view name, E v, E /*max*/) const {
    put_u64(name, static_cast<std::uint64_t>(v));
  }
  void operator()(std::string_view name, double v, Hexfloat) const {
    put(name, render_hexfloat(v));
  }

 private:
  void put(std::string_view name, std::string_view value) const;
  void put_u64(std::string_view name, std::uint64_t value) const;

  std::string& out_;
  char sep_;
};

/// Parsing visitor: assigns each field it is asked for and remembers any
/// violation. It reads either a FieldMap (fields in any order, each exactly
/// once) or the lines of a LineScanner (one field per line, in exactly the
/// order asked for).
class FieldReader {
 public:
  explicit FieldReader(const FieldMap& fields) : fields_(&fields) {}
  FieldReader(LineScanner& lines, char sep) : lines_(&lines), sep_(sep) {}

  template <class T>
  void operator()(std::string_view name, T& v) {
    const std::optional<std::string_view> text = take(name);
    if (!text) return;
    if constexpr (std::is_same_v<T, std::string>) {
      v = *text;
    } else if constexpr (std::is_same_v<T, bool>) {
      assign(parse_bool(*text), v);
    } else if constexpr (std::is_same_v<T, double>) {
      assign(parse_double(*text), v);
    } else {
      assign(parse_unsigned<T>(*text), v);
    }
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(std::string_view name, E& v, E max) {
    std::uint64_t raw = 0;
    (*this)(name, raw);
    ok_ = ok_ && raw <= static_cast<std::uint64_t>(max);
    if (ok_) v = static_cast<E>(raw);
  }
  void operator()(std::string_view name, double& v, Hexfloat) {
    (*this)(name, v);
  }

  /// True when every field asked for was present and well formed and, for
  /// a FieldMap, no field was left unread. (Lines left on a LineScanner
  /// are the caller's: some payloads carry a free-text tail.)
  [[nodiscard]] bool ok() const {
    return ok_ && (fields_ == nullptr || consumed_ == fields_->size());
  }

 private:
  std::optional<std::string_view> take(std::string_view name);
  template <class T>
  void assign(const std::optional<T>& parsed, T& v) {
    ok_ = ok_ && parsed.has_value();
    if (ok_) v = *parsed;
  }

  const FieldMap* fields_ = nullptr;
  LineScanner* lines_ = nullptr;
  char sep_ = ' ';
  std::size_t consumed_ = 0;
  bool ok_ = true;
};

}  // namespace erel::codec
