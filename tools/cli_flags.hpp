// Strict command-line flags, shared by the tool and bench binaries:
// "--flag=value" / "--flag value" matching and numeric values that must fit
// their type. A bad or missing value names the flag and exits 2 (a usage
// error); nothing is wrapped or defaulted silently. This lives outside the
// library because it writes to stderr, which src/ may not do.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/text_codec.hpp"

namespace erel::flags {

/// Strict numeric value: decimal digits that fit T and do not exceed `max`
/// or, for a double, a finite non-negative number. Anything else names the
/// flag and exits 2.
template <class T>
T parse_number(const char* argv0, std::string_view flag,
               const std::string& text,
               std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  std::optional<T> v;
  if constexpr (std::is_same_v<T, double>) {
    v = codec::parse_double(text);
    if (v && !(std::isfinite(*v) && *v >= 0.0)) v.reset();
  } else {
    v = codec::parse_unsigned<T>(text);
  }
  if (v && *v <= max) return *v;
  std::fprintf(stderr, "%s: invalid value '%s' for %.*s ", argv0,
               text.c_str(), static_cast<int>(flag.size()), flag.data());
  if constexpr (std::is_same_v<T, double>)
    std::fprintf(stderr, "(expected a finite number >= 0)\n");
  else
    std::fprintf(stderr, "(expected 0..%llu)\n",
                 static_cast<unsigned long long>(max));
  std::exit(2);
}

/// The argument at argv[i], matched against one flag at a time. is() takes
/// "--flag" and "--flag=value"; the matched flag's value is the text after
/// '=' or else the next argument, which value() consumes by advancing i.
class Arg {
 public:
  Arg(int argc, char** argv, int& i)
      : argc_(argc), argv_(argv), i_(i), text_(argv[i]) {}

  [[nodiscard]] std::string_view text() const { return text_; }

  /// True when the argument is `flag`, bare or with "=value"; value() and
  /// number() then read that flag's value.
  bool is(std::string_view flag) {
    if (!text_.starts_with(flag) ||
        (text_.size() > flag.size() && text_[flag.size()] != '='))
      return false;
    flag_ = flag;
    return true;
  }

  std::string value() {
    if (text_.size() > flag_.size())
      return std::string(text_.substr(flag_.size() + 1));
    if (i_ + 1 < argc_) return argv_[++i_];
    std::fprintf(stderr, "%s: missing value for %.*s\n", argv_[0],
                 static_cast<int>(flag_.size()), flag_.data());
    std::exit(2);
  }

  template <class T>
  void number(T& out,
              std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    out = parse_number<T>(argv_[0], flag_, value(), max);
  }

 private:
  int argc_;
  char** argv_;
  int& i_;
  std::string_view text_;
  std::string_view flag_;
};

}  // namespace erel::flags
