#include "util/args.hpp"

#include <gtest/gtest.h>

namespace ranm {
namespace {

TEST(ArgParser, PositionalsAndOptions) {
  const ArgParser args({"gen", "--count", "5", "extra", "--out", "o.bin"});
  ASSERT_EQ(args.positional_count(), 2U);
  EXPECT_EQ(args.positional(0), "gen");
  EXPECT_EQ(args.positional(1), "extra");
  EXPECT_EQ(args.get("count", ""), "5");
  EXPECT_EQ(args.get("out", ""), "o.bin");
  EXPECT_THROW((void)args.positional(2), std::invalid_argument);
}

TEST(ArgParser, FlagsHaveNoValue) {
  const ArgParser args({"--robust", "--delta", "0.1"});
  EXPECT_TRUE(args.has("robust"));
  EXPECT_TRUE(args.has("delta"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_THROW((void)args.get("robust", ""), std::invalid_argument);
  EXPECT_EQ(args.get("delta", ""), "0.1");
}

TEST(ArgParser, TrailingFlag) {
  const ArgParser args({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.positional_count(), 0U);
}

TEST(ArgParser, Fallbacks) {
  const ArgParser args({"--a", "1"});
  EXPECT_EQ(args.get("b", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("b", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("b", 2.5), 2.5);
}

TEST(ArgParser, TypedAccessors) {
  const ArgParser args({"--n", "17", "--x", "-3.25", "--neg", "-9"});
  EXPECT_EQ(args.get_int("n", 0), 17);
  EXPECT_EQ(args.get_int("neg", 0), -9);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), -3.25);
  EXPECT_DOUBLE_EQ(args.get_double("n", 0.0), 17.0);
}

TEST(ArgParser, TypedErrors) {
  const ArgParser args({"--n", "17x", "--x", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
}

TEST(ArgParser, RequireThrowsWhenMissing) {
  const ArgParser args({"--present", "v"});
  EXPECT_EQ(args.require("present"), "v");
  EXPECT_THROW((void)args.require("absent"), std::invalid_argument);
}

// `--key=value` used to parse silently; now it is rejected at parse time
// with a diagnostic that spells out the supported space-separated form.
TEST(ArgParser, EqualsSyntaxRejected) {
  try {
    ArgParser args({"--domain=zonotope"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("use '--domain zonotope'"),
              std::string::npos)
        << e.what();
  }
  // The diagnostic splits at the first '=' even when the value embeds one.
  try {
    ArgParser args({"--expr=a=b"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("use '--expr a=b'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ArgParser, CheckKnownAcceptsDeclaredKeys) {
  const ArgParser args({"--shards", "4", "--robust", "--out", "m.bin"});
  EXPECT_NO_THROW(args.check_known({"shards", "robust", "out", "unused"}));
}

TEST(ArgParser, CheckKnownRejectsUnknownWithSuggestion) {
  const ArgParser args({"--shard", "4"});
  try {
    args.check_known({"shards", "threads", "out"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option --shard"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean --shards?"), std::string::npos) << msg;
  }
}

TEST(ArgParser, CheckKnownSkipsSuggestionWhenNothingIsClose) {
  const ArgParser args({"--frobnicate", "1"});
  try {
    args.check_known({"shards", "out"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option --frobnicate"), std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(ArgParser, CheckKnownEmptyParserAlwaysPasses) {
  const ArgParser args(std::vector<std::string>{});
  EXPECT_NO_THROW(args.check_known({}));
  EXPECT_NO_THROW(args.check_known({"a", "b"}));
}

TEST(ArgParser, NegativeNumberAsValueNotOption) {
  // "-3" does not start with "--" so it is consumed as the value.
  const ArgParser args({"--shift", "-3"});
  EXPECT_EQ(args.get_int("shift", 0), -3);
}

TEST(ArgParser, BareDoubleDashRejected) {
  EXPECT_THROW(ArgParser({"--"}), std::invalid_argument);
}

TEST(ArgParser, KeysLists) {
  const ArgParser args({"--b", "1", "--a", "2"});
  const auto keys = args.keys();
  ASSERT_EQ(keys.size(), 2U);
  EXPECT_EQ(keys[0], "a");  // map order
  EXPECT_EQ(keys[1], "b");
}

TEST(ArgParser, GetAllCollectsRepeatedOptions) {
  const ArgParser args({"--ood", "a.ds", "--ood", "b.ds,c.ds", "--x", "1"});
  const auto all = args.get_all("ood");
  ASSERT_EQ(all.size(), 2U);
  EXPECT_EQ(all[0], "a.ds");
  EXPECT_EQ(all[1], "b.ds,c.ds");
  // Single accessors keep last-wins semantics for repeated options.
  EXPECT_EQ(args.get("ood", ""), "b.ds,c.ds");
  EXPECT_EQ(args.get_all("x"), std::vector<std::string>{"1"});
}

TEST(ArgParser, GetAllAbsentIsEmpty) {
  const ArgParser args({"--a", "1"});
  EXPECT_TRUE(args.get_all("missing").empty());
}

TEST(ArgParser, GetAllRejectsBareFlagOccurrence) {
  const ArgParser args({"--ood", "a.ds", "--ood"});
  EXPECT_THROW((void)args.get_all("ood"), std::invalid_argument);
}

TEST(ArgParser, GetSizeParsesAndFallsBack) {
  const ArgParser args({"--count", "40"});
  EXPECT_EQ(args.get_size("count", 100, 1000), 40U);
  EXPECT_EQ(args.get_size("missing", 100, 1000), 100U);
  EXPECT_EQ(args.get_size("count", 0, 40), 40U);  // at the cap
}

// Regression for the std::size_t(get_int(...)) wrap: `--count -1` used to
// become ~1.8e19 and size a multi-GB allocation.
TEST(ArgParser, GetSizeRejectsNegative) {
  const ArgParser args({"--count", "-1", "--layer", "-1", "--bits", "-1"});
  EXPECT_THROW((void)args.get_size("count", 100, 1U << 26),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_size("layer", 0, 1U << 20),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_size("bits", 2, 16), std::invalid_argument);
}

TEST(ArgParser, GetSizeRejectsOverflow) {
  const ArgParser args({"--count", "1000001", "--big", "99999999999999"});
  EXPECT_THROW((void)args.get_size("count", 0, 1000000),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_size("big", 0, 1U << 26),
               std::invalid_argument);
}

TEST(ArgParser, GetSizeRejectsNonNumeric) {
  const ArgParser args({"--count", "12x"});
  EXPECT_THROW((void)args.get_size("count", 0, 100), std::invalid_argument);
}

TEST(ArgParser, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "cmd", "--k", "v"};
  const ArgParser args(4, argv);
  EXPECT_EQ(args.positional_count(), 1U);
  EXPECT_EQ(args.positional(0), "cmd");
  EXPECT_EQ(args.get("k", ""), "v");
}

}  // namespace
}  // namespace ranm
