#include "args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace jps::tools {
namespace {

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;  // keep c_str()s alive
  storage = std::move(tokens);
  storage.insert(storage.begin(), "jps_cli");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, CommandAndFlags) {
  const Args args = make_args({"plan", "--model", "alexnet", "--jobs", "42"});
  EXPECT_EQ(args.command(), "plan");
  EXPECT_EQ(args.get("model", "x"), "alexnet");
  EXPECT_EQ(args.get_int("jobs", 0), 42);
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Args, BareSwitches) {
  const Args args = make_args({"plan", "--simulate", "--gantt", "--jobs", "3"});
  EXPECT_TRUE(args.has("simulate"));
  EXPECT_TRUE(args.has("gantt"));
  EXPECT_FALSE(args.has("table"));
  EXPECT_EQ(args.get_int("jobs", 0), 3);
}

TEST(Args, SwitchFollowedByFlagStaysBare) {
  // "--simulate --model x": simulate must not swallow "--model".
  const Args args = make_args({"plan", "--simulate", "--model", "vgg16"});
  EXPECT_EQ(args.get("simulate", ""), "true");
  EXPECT_EQ(args.get("model", ""), "vgg16");
}

TEST(Args, EqualsSyntax) {
  const Args args = make_args({"plan", "--model=alexnet", "--jobs=42",
                               "--trace-out=/tmp/a=b.json", "--empty="});
  EXPECT_EQ(args.get("model", "x"), "alexnet");
  EXPECT_EQ(args.get_int("jobs", 0), 42);
  // Only the first '=' splits; the rest belongs to the value.
  EXPECT_EQ(args.get("trace-out", ""), "/tmp/a=b.json");
  // "--key=" is an explicit empty value, not a bare switch.
  EXPECT_TRUE(args.has("empty"));
  EXPECT_EQ(args.get("empty", "fallback"), "");
}

TEST(Args, EqualsSyntaxMixesWithSpaceSyntax) {
  const Args args =
      make_args({"plan", "--model=vgg16", "--jobs", "7", "--simulate"});
  EXPECT_EQ(args.get("model", ""), "vgg16");
  EXPECT_EQ(args.get_int("jobs", 0), 7);
  EXPECT_EQ(args.get("simulate", ""), "true");
}

TEST(Args, Doubles) {
  const Args args = make_args({"plan", "--bandwidth", "5.85"});
  EXPECT_DOUBLE_EQ(args.get_double("bandwidth", 0.0), 5.85);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(Args, BadNumbersThrow) {
  const Args args = make_args({"plan", "--jobs", "many", "--bandwidth", "fast"});
  EXPECT_THROW((void)args.get_int("jobs", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("bandwidth", 0.0), std::invalid_argument);
}

TEST(Args, NoCommand) {
  const Args args = make_args({});
  EXPECT_EQ(args.command(), "");
}

TEST(Args, TrailingGarbageIsAUsageErrorNotAPrefixParse) {
  // Regression: the tools used unguarded std::stod/stoi, so "--threshold
  // 0.1x" silently ran with 0.1 (stod stops at the 'x') and "--jobs 12q"
  // ran with 12 jobs.  Strict parsing rejects both with a UsageError the
  // tool's main() turns into exit 64 plus a usage message.
  const Args args = make_args({"diff", "--threshold", "0.1x", "--jobs", "12q"});
  EXPECT_THROW((void)args.get_double("threshold", 0.0), UsageError);
  EXPECT_THROW((void)args.get_int("jobs", 0), UsageError);
}

TEST(Args, IntRejectsFractionsAndOverflow) {
  const Args args =
      make_args({"plan", "--jobs", "1.5", "--huge", "99999999999999999999"});
  EXPECT_THROW((void)args.get_int("jobs", 0), UsageError);
  EXPECT_THROW((void)args.get_int("huge", 0), UsageError);
}

TEST(Args, UsageErrorsNameTheFlagAndValue) {
  const Args args = make_args({"plan", "--bandwidth", "fast"});
  try {
    (void)args.get_double("bandwidth", 0.0);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--bandwidth"), std::string::npos) << what;
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
  }
}

TEST(Args, RejectUnknownNamesTheFlagNotInTheList) {
  const Args args =
      make_args({"serve", "--port", "0", "--chaos", "--snapshot=x"});
  EXPECT_NO_THROW(args.reject_unknown({"port", "chaos", "snapshot"}));
  try {
    args.reject_unknown({"port", "chaos"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --snapshot");
  }
  // Positionals are not flags; bare switches are.
  EXPECT_NO_THROW(make_args({"serve", "extra"}).reject_unknown({}));
  EXPECT_THROW(make_args({"serve", "--chaos"}).reject_unknown({"port"}),
               UsageError);
}

}  // namespace
}  // namespace jps::tools
