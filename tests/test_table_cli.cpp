#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace mdm {
namespace {

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("longer-name | 22"), std::string::npos);
  // Short cell padded to the widest in its column.
  EXPECT_NE(s.find("x           | 1"), std::string::npos);
}

TEST(AsciiTable, RuleSeparatesGroups) {
  AsciiTable t;
  t.add_row({"a"});
  t.add_rule();
  t.add_row({"b"});
  const std::string s = t.str();
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(AsciiTable, HandlesRaggedRows) {
  AsciiTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  t.add_row({"1", "2", "3"});
  EXPECT_NO_THROW(t.str());
}

TEST(Format, Scientific) {
  EXPECT_EQ(format_sci(6.754e14, 3), "6.75e+14");
  EXPECT_EQ(format_sci(-1.0, 2), "-1.0e+00");
}

TEST(Format, FixedAndInt) {
  EXPECT_EQ(format_fixed(43.8, 1), "43.8");
  EXPECT_EQ(format_fixed(1.346, 2), "1.35");  // rounds
  EXPECT_EQ(format_int(18821096), "18,821,096");
  EXPECT_EQ(format_int(-1234), "-1,234");
  EXPECT_EQ(format_int(12), "12");
}

TEST(CommandLine, FlagsAndValues) {
  const char* argv[] = {"prog",     "--full",  "--steps", "600",
                        "--alpha=8.5", "positional"};
  CommandLine cli(6, argv);
  EXPECT_TRUE(cli.has("full"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_int("steps", 0), 600);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 8.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(CommandLine, Defaults) {
  const char* argv[] = {"prog"};
  CommandLine cli(1, argv);
  EXPECT_EQ(cli.get_int("steps", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cli.get_string("name", "d"), "d");
  EXPECT_FALSE(cli.get_bool("flag"));
}

TEST(CommandLine, BoolForms) {
  const char* argv[] = {"prog", "--a", "--b=false", "--c=1", "--d", "no"};
  CommandLine cli(6, argv);
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
  EXPECT_FALSE(cli.get_bool("d"));
}

TEST(CommandLine, IntList) {
  const char* argv[] = {"prog", "--sizes", "512,4096,32768"};
  CommandLine cli(3, argv);
  const auto sizes = cli.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 512);
  EXPECT_EQ(sizes[2], 32768);
  const auto fallback = cli.get_int_list("other", {1, 2});
  EXPECT_EQ(fallback.size(), 2u);
}

/// `what()` of the std::invalid_argument that `f` must throw.
template <typename F>
std::string rejection(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no exception)";
}

TEST(CommandLine, RejectsMalformedNumbersNamingTheFlag) {
  const char* argv[] = {"prog",         "--cells",     "abc",
                        "--steps=3x",   "--huge",      "99999999999999999999",
                        "--alpha",      "1.5e",        "--tiny=1e999",
                        "--sizes",      "512,4k,8",    "--empty-entry=,"};
  CommandLine cli(12, argv);
  EXPECT_NE(rejection([&] { cli.get_int("cells", 0); }).find("--cells"),
            std::string::npos);
  EXPECT_NE(rejection([&] { cli.get_int("steps", 0); }).find("--steps"),
            std::string::npos);
  EXPECT_NE(rejection([&] { cli.get_int("huge", 0); }).find("--huge"),
            std::string::npos);
  EXPECT_NE(rejection([&] { cli.get_double("alpha", 0); }).find("--alpha"),
            std::string::npos);
  EXPECT_NE(rejection([&] { cli.get_double("tiny", 0); }).find("--tiny"),
            std::string::npos);
  EXPECT_NE(rejection([&] { cli.get_int_list("sizes", {}); }).find("'4k'"),
            std::string::npos);
  // Empty list entries are skipped, as before.
  EXPECT_TRUE(cli.get_int_list("empty-entry", {}).empty());
}

TEST(CommandLine, AcceptsWellFormedNumbers) {
  const char* argv[] = {"prog", "--n=-12", "--x", "2.5e-3", "--y=.5",
                        "--list", "1,-2,3"};
  CommandLine cli(7, argv);
  EXPECT_EQ(cli.get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(cli.get_double("y", 0.0), 0.5);
  EXPECT_EQ(cli.get_int_list("list", {}), (std::vector<long long>{1, -2, 3}));
}

}  // namespace
}  // namespace mdm
