// Tests for the command line parser used by benches and examples, and
// for the shared value parsers (support/parse.hpp) its getters read
// through.
#include "support/cli.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/parse.hpp"

namespace fpsched {
namespace {

CliParser make_parser() {
  CliParser parser("test tool");
  parser.add_option("tasks", "100", "number of tasks");
  parser.add_option("lambda", "0.001", "failure rate");
  parser.add_option("sizes", "50,100,200", "task counts");
  parser.add_flag("full", "run the full grid");
  return parser;
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_count("tasks"), 100u);
  EXPECT_DOUBLE_EQ(parser.get_double("lambda"), 0.001);
  EXPECT_FALSE(parser.get_flag("full"));
  EXPECT_EQ(parser.get_string_list("sizes"), (std::vector<std::string>{"50", "100", "200"}));
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  CliParser parser = make_parser();
  const char* argv[] = {"prog", "--tasks", "250", "--lambda=0.01", "--full"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_count("tasks"), 250u);
  EXPECT_DOUBLE_EQ(parser.get_double("lambda"), 0.01);
  EXPECT_TRUE(parser.get_flag("full"));
}

TEST(Cli, ListParsing) {
  CliParser parser = make_parser();
  const char* argv[] = {"prog", "--sizes", "1,2,3,4"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_string_list("sizes"), (std::vector<std::string>{"1", "2", "3", "4"}));
  EXPECT_EQ(parser.get_string_list("lambda"), std::vector<std::string>{"0.001"});
}

TEST(Cli, HelpShortCircuits) {
  CliParser parser = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.help_text().find("--tasks"), std::string::npos);
  EXPECT_NE(parser.help_text().find("default: 100"), std::string::npos);
}

TEST(Cli, HelpShowsNoEmptyDefault) {
  CliParser parser = make_parser();
  parser.add_option("out", "", "output file (default: stdout)");
  const std::string help = parser.help_text();
  EXPECT_NE(help.find("output file (default: stdout)\n"), std::string::npos) << help;
  EXPECT_EQ(help.find("(default: )"), std::string::npos) << help;
  EXPECT_NE(help.find("task counts (default: 50,100,200)"), std::string::npos) << help;
}

TEST(Cli, Errors) {
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--unknown", "1"};
    EXPECT_THROW(parser.parse(3, argv), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--tasks"};
    EXPECT_THROW(parser.parse(2, argv), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "positional"};
    EXPECT_THROW(parser.parse(2, argv), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--full=yes"};
    EXPECT_THROW(parser.parse(2, argv), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--tasks", "abc"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW(parser.get_count("tasks"), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    EXPECT_THROW(parser.add_option("tasks", "1", "dup"), InvalidArgument);
  }
}

TEST(Cli, OutOfRangeNumbersAreRejected) {
  // strtoull/strtod clamp out-of-range input and only raise errno; the
  // parser must reject instead of silently returning ULLONG_MAX/HUGE_VAL.
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--tasks", "99999999999999999999"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW(parser.get_count("tasks"), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--tasks", "-99999999999999999999"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW(parser.get_count("tasks"), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--lambda", "1e999"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW(parser.get_double("lambda"), InvalidArgument);
  }
  {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--lambda", "1e-4"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_DOUBLE_EQ(parser.get_double("lambda"), 1e-4);  // in-range still fine
  }
}

TEST(Parse, IntegersAreDigitsOnly) {
  EXPECT_EQ(parse_u64("18446744073709551615", "x"), 18446744073709551615u);
  EXPECT_EQ(parse_count("7", "x", 1), 7u);
  // A sign, a blank or a wrapped value would let two front ends read the
  // same text differently (a signed parse wraps `-1` to 2^64 - 1).
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "0x10", "1e3", "18446744073709551616"}) {
    EXPECT_THROW(parse_u64(bad, "x"), InvalidArgument) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_count("0", "x", 1), InvalidArgument);
  try {
    parse_count("abc", "option --tasks");
    FAIL() << "abc must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("option --tasks"), std::string::npos) << e.what();
  }
}

TEST(Parse, NumbersBooleansAndLists) {
  EXPECT_DOUBLE_EQ(parse_number("2.5e-3", "x"), 2.5e-3);
  for (const char* bad : {"", "1.5x", "1e999", "1e-400"}) {
    EXPECT_THROW(parse_number(bad, "x"), InvalidArgument) << "'" << bad << "'";
  }
  for (const char* on : {"", "1", "true", "YES", "On"}) EXPECT_TRUE(parse_bool(on, "x")) << on;
  for (const char* off : {"0", "false", "no", "OFF"}) EXPECT_FALSE(parse_bool(off, "x")) << off;
  EXPECT_THROW(parse_bool("maybe", "x"), InvalidArgument);
  EXPECT_EQ(parse_list("a,b", "x"), (std::vector<std::string>{"a", "b"}));
}

TEST(Cli, EmptyListSegmentsAreRejected) {
  const auto expect_list_throws = [](const char* value) {
    CliParser parser = make_parser();
    const char* argv[] = {"prog", "--sizes", value};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW(parser.get_string_list("sizes"), InvalidArgument) << "value: '" << value << "'";
    EXPECT_THROW(parse_list(value, "x"), InvalidArgument) << "value: '" << value << "'";
  };
  expect_list_throws("100,,200");  // interior empty segment
  expect_list_throws("100,200,");  // trailing comma
  expect_list_throws(",100");      // leading comma
  expect_list_throws(",");         // only separators
  expect_list_throws("");          // empty list
}

TEST(Cli, PositionalsRejectedUnlessAllowed) {
  CliParser parser = make_parser();
  const char* argv[] = {"prog", "fig2"};
  EXPECT_THROW(parser.parse(2, argv), InvalidArgument);
}

TEST(Cli, PositionalsCollectInOrderAndMixWithOptions) {
  CliParser parser = make_parser();
  parser.allow_positionals("experiment", "experiment names");
  const char* argv[] = {"prog", "fig2", "--tasks", "7", "fig7", "--full"};
  ASSERT_TRUE(parser.parse(6, argv));
  EXPECT_EQ(parser.positionals(), (std::vector<std::string>{"fig2", "fig7"}));
  EXPECT_EQ(parser.get_count("tasks"), 7u);
  EXPECT_TRUE(parser.get_flag("full"));
  EXPECT_NE(parser.help_text().find("<experiment>"), std::string::npos);
}

TEST(Cli, StringListSplitsAndRejectsEmptySegments) {
  CliParser parser = make_parser();
  const char* argv[] = {"prog", "--sizes", "table,chart"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_string_list("sizes"), (std::vector<std::string>{"table", "chart"}));

  CliParser bad = make_parser();
  const char* bad_argv[] = {"prog", "--sizes", "table,,chart"};
  ASSERT_TRUE(bad.parse(3, bad_argv));
  EXPECT_THROW(bad.get_string_list("sizes"), InvalidArgument);
}

}  // namespace
}  // namespace fpsched
