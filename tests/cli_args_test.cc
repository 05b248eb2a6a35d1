// Unit tests for the CLI argument parser and flag check
// (tools/cli_commands.h). The subcommands themselves are covered by ctest
// smoke tests; this covers the parsing edge cases those tests cannot reach.

#include "cli_commands.h"

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace sitfact {
namespace cli {
namespace {

/// argv builder: keeps the strings alive and hands out char* the way main
/// receives them.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (auto& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

TEST(ParseArgs, CommandAndFlagValuePairs) {
  Argv a({"sitfact_cli", "discover", "--csv", "data.csv", "--tau", "100"});
  Args args;
  ASSERT_TRUE(ParseArgs(a.argc(), a.argv(), &args).ok());
  EXPECT_EQ(args.command, "discover");
  EXPECT_EQ(args.Get("csv"), "data.csv");
  EXPECT_EQ(args.GetInt("tau", -1), 100);
  EXPECT_EQ(args.GetDouble("tau", -1), 100.0);
}

TEST(ParseArgs, EqualsSyntaxAndBareBooleans) {
  Argv a({"cli", "resume", "--snapshot=x.snap", "--quiet", "--replay"});
  Args args;
  ASSERT_TRUE(ParseArgs(a.argc(), a.argv(), &args).ok());
  EXPECT_EQ(args.Get("snapshot"), "x.snap");
  EXPECT_TRUE(args.Has("quiet"));
  EXPECT_EQ(args.Get("quiet"), "true");
  EXPECT_TRUE(args.Has("replay"));
}

TEST(ParseArgs, BareFlagFollowedByFlagStaysBoolean) {
  Argv a({"cli", "discover", "--quiet", "--csv", "f.csv"});
  Args args;
  ASSERT_TRUE(ParseArgs(a.argc(), a.argv(), &args).ok());
  EXPECT_EQ(args.Get("quiet"), "true");
  EXPECT_EQ(args.Get("csv"), "f.csv");
}

TEST(ParseArgs, RepeatedFlagKeepsLastValue) {
  Argv a({"cli", "query", "--algo", "bnl", "--algo", "dnc"});
  Args args;
  ASSERT_TRUE(ParseArgs(a.argc(), a.argv(), &args).ok());
  EXPECT_EQ(args.Get("algo"), "dnc");
}

TEST(ParseArgs, PositionalArgumentRejectedSilently) {
  Argv a({"cli", "discover", "stray.csv"});
  Args args;
  // The parser reports through the Status, not by printing: rendering the
  // error is the caller's job, and unit-test output must stay clean.
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  Status st = ParseArgs(a.argc(), a.argv(), &args);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "unexpected positional argument: stray.csv");
  EXPECT_EQ(out, "");
  EXPECT_EQ(err, "");
}

TEST(ParseArgs, NoCommandRejectedSilently) {
  Argv a({"cli"});
  Args args;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  Status st = ParseArgs(a.argc(), a.argv(), &args);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "missing command");
  EXPECT_EQ(out, "");
  EXPECT_EQ(err, "");
}

TEST(ParseArgs, DefaultsWhenFlagAbsent) {
  Argv a({"cli", "generate"});
  Args args;
  ASSERT_TRUE(ParseArgs(a.argc(), a.argv(), &args).ok());
  EXPECT_FALSE(args.Has("rows"));
  EXPECT_EQ(args.Get("dataset", "nba"), "nba");
  EXPECT_EQ(args.GetInt("rows", 1000), 1000);
  EXPECT_EQ(args.GetDouble("tau", 2.5), 2.5);
}

TEST(ParseArgs, NegativeAndFloatValuesParse) {
  Argv a({"cli", "discover", "--dhat", "-1", "--tau", "2.75"});
  Args args;
  ASSERT_TRUE(ParseArgs(a.argc(), a.argv(), &args).ok());
  // "-1" starts with '-' but not "--": it is consumed as the value.
  EXPECT_EQ(args.GetInt("dhat", 0), -1);
  EXPECT_DOUBLE_EQ(args.GetDouble("tau", 0), 2.75);
}

/// ParseArgs + CheckFlags over `argv`.
Status Check(std::vector<std::string> argv) {
  Argv a(std::move(argv));
  Args args;
  Status parsed = ParseArgs(a.argc(), a.argv(), &args);
  if (!parsed.ok()) return parsed;
  return CheckFlags(args);
}

TEST(CheckFlags, MisspeltFlagNamesFlagAndCommand) {
  // Used to print the full-space skyline as if no subspace had been given.
  Status st = Check({"cli", "query", "--csv", "f.csv", "--dims", "a",
                     "--measures", "m", "--subspce", "points"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "unknown flag --subspce for query");
}

TEST(CheckFlags, DeletedAlgoFlagIsRejected) {
  Status st = Check({"cli", "query", "--csv", "f.csv", "--algo", "bnl"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "unknown flag --algo for query");
}

TEST(CheckFlags, EqualsSyntaxAndBareFlagsAreChecked) {
  EXPECT_EQ(Check({"cli", "discover", "--qiet"}).message(),
            "unknown flag --qiet for discover");
  EXPECT_EQ(Check({"cli", "discover", "--tua=2"}).message(),
            "unknown flag --tua for discover");
}

TEST(CheckFlags, FlagOfAnotherCommandIsRejected) {
  EXPECT_EQ(Check({"cli", "generate", "--csv", "f.csv"}).message(),
            "unknown flag --csv for generate");
  EXPECT_EQ(Check({"cli", "wal-dump", "--dir", "d", "--tau", "2"}).message(),
            "unknown flag --tau for wal-dump");
  EXPECT_EQ(Check({"cli", "restore", "--dir", "d", "--dims", "a"}).message(),
            "unknown flag --dims for restore");
  EXPECT_EQ(Check({"cli", "query", "--csv", "f", "--tau", "2"}).message(),
            "unknown flag --tau for query");
}

TEST(CheckFlags, EveryFlagEachCommandReadsPasses) {
  const std::vector<std::string> csv = {"--csv", "f.csv", "--dims", "a",
                                        "--measures", "m"};
  const std::vector<std::string> storage = {"--storage", "paged", "--cache-mb",
                                            "4", "--spill-dir", "s"};
  // `head` followed by every part.
  auto with = [](std::vector<std::string> head,
                 std::initializer_list<std::vector<std::string>> parts) {
    for (const auto& part : parts) {
      head.insert(head.end(), part.begin(), part.end());
    }
    return head;
  };
  EXPECT_TRUE(Check({"cli", "generate", "--dataset", "nba", "--rows", "9",
                     "--out", "o.csv", "--seed", "3"})
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "discover"},
                         {csv, storage,
                          {"--algorithm", "STopDown", "--dhat", "3", "--mhat",
                           "3", "--tau", "2", "--top", "3", "--entity", "a",
                           "--threads", "2", "--shards", "4",
                           "--save-snapshot", "x.snap", "--quiet"}}))
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "query"},
                         {csv, {"--where", "a=1", "--subspace", "m"}}))
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "facts"},
                         {csv, storage,
                          {"--dir", "d", "--k", "3", "--page", "1", "--where",
                           "a=1", "--subspace", "m", "--min-prominence", "2",
                           "--window", "1:9", "--prominent-only", "--entity",
                           "a", "--tau", "2", "--format", "json",
                           "--algorithm", "STopDown", "--threads", "2",
                           "--shards", "4", "--watch", "--poll-ms", "5",
                           "--replay", "--dhat", "3", "--mhat", "3"}}))
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "serve"},
                         {csv, storage,
                          {"--port", "0", "--host", "h", "--port-file", "p",
                           "--max-connections", "8", "--cache", "16",
                           "--algorithm", "STopDown", "--tau", "2",
                           "--entity", "a", "--dhat", "3", "--mhat", "3"}}))
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "resume"},
                         {storage,
                          {"--snapshot", "x.snap", "--csv", "f.csv", "--top",
                           "3", "--quiet", "--algorithm", "STopDown",
                           "--replay"}}))
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "checkpoint"},
                         {csv, storage,
                          {"--dir", "d", "--algorithm", "STopDown",
                           "--threads", "2", "--shards", "4", "--tau", "2",
                           "--every", "8", "--sync", "--no-final",
                           "--full-every", "4", "--no-delta", "--top", "3",
                           "--quiet", "--entity", "a", "--replay", "--dhat",
                           "3", "--mhat", "3"}}))
                  .ok());
  EXPECT_TRUE(Check(with({"cli", "restore"},
                         {storage,
                          {"--dir", "d", "--csv", "f.csv", "--threads", "2",
                           "--shards", "4", "--every", "8", "--no-final",
                           "--top", "3", "--quiet", "--replay", "--entity",
                           "a"}}))
                  .ok());
  EXPECT_TRUE(Check({"cli", "wal-dump", "--wal", "w", "--dir", "d", "--limit",
                     "2"})
                  .ok());
}

TEST(CheckFlags, UnknownCommandIsLeftToDispatch) {
  EXPECT_TRUE(Check({"cli", "frobnicate", "--anything"}).ok());
}

}  // namespace
}  // namespace cli
}  // namespace sitfact
