// The shared key/value text codec (src/common/text_codec.hpp): the number
// grammar every reader applies, and the strictness of the field visitors.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/text_codec.hpp"

namespace erel {
namespace {

TEST(TextCodec, IntegersAreDecimalDigitsOnly) {
  EXPECT_EQ(codec::parse_u64("0"), 0u);
  EXPECT_EQ(codec::parse_u64("007"), 7u);
  EXPECT_EQ(codec::parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+7", " 7", "7 ", "7\n", "0x10", "1e3",
                          "12x", "18446744073709551616"})
    EXPECT_FALSE(codec::parse_u64(bad)) << '"' << bad << '"';
  EXPECT_EQ(codec::parse_unsigned<std::uint16_t>("65535"), 65535u);
  EXPECT_FALSE(codec::parse_unsigned<std::uint16_t>("65536"));
  EXPECT_FALSE(codec::parse_unsigned<unsigned>("4294967296"));
}

TEST(TextCodec, BoolsAreZeroOrOne) {
  EXPECT_EQ(codec::parse_bool("0"), false);
  EXPECT_EQ(codec::parse_bool("1"), true);
  for (const char* bad : {"", "01", "2", "true", " 1"})
    EXPECT_FALSE(codec::parse_bool(bad)) << '"' << bad << '"';
}

TEST(TextCodec, DoublesRoundTripAndConsumeTheWholeToken) {
  for (const double v : {0.1, -3.25, 1e-300, 2.0 / 3.0, 123456.75}) {
    EXPECT_EQ(codec::parse_double(codec::render_double(v)), v);
    EXPECT_EQ(codec::parse_double(codec::render_hexfloat(v)), v);
  }
  EXPECT_TRUE(std::isnan(*codec::parse_double("nan")));
  for (const char* bad : {"", " 1.5", "1.5 ", "1.5x", "abc"})
    EXPECT_FALSE(codec::parse_double(bad)) << '"' << bad << '"';
}

struct Sample {
  std::uint64_t count = 0;
  bool flag = false;
  double ratio = 0.0;
  std::string label;
};

template <class S, class Fn>
void sample_fields(S& s, Fn&& f) {
  f("count", s.count);
  f("flag", s.flag);
  f("ratio", s.ratio);
  f("label", s.label);
}

std::optional<Sample> read_map(const std::string& text) {
  codec::FieldMap fields;
  codec::LineScanner lines(text);
  for (std::string_view line; lines.next(line);)
    if (!codec::add_field(fields, line, '=')) return std::nullopt;
  Sample s;
  codec::FieldReader read(fields);
  sample_fields(s, read);
  if (!read.ok()) return std::nullopt;
  return s;
}

TEST(TextCodec, MapReaderRejectsMissingDuplicateUnknownAndMalformed) {
  Sample in{42, true, 0.1, "a=b c"};
  std::string text;
  sample_fields(in, codec::FieldWriter(text, '='));
  EXPECT_EQ(text, "count=42\nflag=1\nratio=0.10000000000000001\nlabel=a=b c\n");
  const auto out = read_map(text);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->count, 42u);
  EXPECT_TRUE(out->flag);
  EXPECT_EQ(out->ratio, 0.1);
  EXPECT_EQ(out->label, "a=b c");  // split at the first separator only

  EXPECT_TRUE(read_map("label=x\nratio=0\nflag=0\ncount=1\n"));  // any order
  EXPECT_FALSE(read_map("count=1\nflag=0\nratio=0\n"));           // missing
  EXPECT_FALSE(read_map(text + "count=1\n"));                     // duplicate
  EXPECT_FALSE(read_map(text + "extra=1\n"));                     // unknown
  EXPECT_FALSE(read_map(text + "\n\n"));                          // blank
  EXPECT_FALSE(read_map("count=-1\nflag=0\nratio=0\nlabel=\n"));  // malformed
}

TEST(TextCodec, LineReaderWantsTheListedOrder) {
  const auto read = [](const std::string& text) {
    codec::LineScanner lines(text);
    codec::FieldReader reader(lines, ' ');
    Sample s;
    sample_fields(s, reader);
    return reader.ok() ? lines.rest() : std::string_view("<rejected>");
  };
  EXPECT_EQ(read("count 1\nflag 0\nratio 0\nlabel x y\ntail"), "tail");
  EXPECT_EQ(read("flag 0\ncount 1\nratio 0\nlabel x\n"), "<rejected>");
  EXPECT_EQ(read("count 1\nflag 0\nratio 0\n"), "<rejected>");
}

}  // namespace
}  // namespace erel
