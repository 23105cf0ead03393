// Tests for the shared command-line layer: the strict unsigned-integer
// parser that replaced atoi (accepting "12abc" or "-3" as a thread count
// was a real bug), the argument parser both frontends validate requests
// with, and the driver's deadline conversion.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "casestudies/token_ring.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "lang/printer.hpp"

namespace {

using namespace stsyn;

TEST(ParseUint, AcceptsPlainDecimal) {
  EXPECT_EQ(cli::parseUint("0", 100), 0u);
  EXPECT_EQ(cli::parseUint("42", 100), 42u);
  EXPECT_EQ(cli::parseUint("100", 100), 100u);
  EXPECT_EQ(cli::parseUint("18446744073709551615", UINT64_MAX), UINT64_MAX);
}

TEST(ParseUint, RejectsEverythingAtoiUsedToAccept) {
  // atoi("12abc") == 12; atoi("-3") == -3 wrapped to huge unsigned;
  // atoi("") == 0. All of these must be hard errors now.
  EXPECT_FALSE(cli::parseUint("12abc", 100).has_value());
  EXPECT_FALSE(cli::parseUint("-3", 100).has_value());
  EXPECT_FALSE(cli::parseUint("", 100).has_value());
  EXPECT_FALSE(cli::parseUint(" 1", 100).has_value());
  EXPECT_FALSE(cli::parseUint("1 ", 100).has_value());
  EXPECT_FALSE(cli::parseUint("+1", 100).has_value());
  EXPECT_FALSE(cli::parseUint("0x10", 100).has_value());
  EXPECT_FALSE(cli::parseUint("1e3", 100).has_value());
}

TEST(ParseUint, RejectsOverflowAndRangeViolations) {
  EXPECT_FALSE(cli::parseUint("101", 100).has_value());
  EXPECT_FALSE(cli::parseUint("18446744073709551616", UINT64_MAX)
                   .has_value());  // UINT64_MAX + 1
  EXPECT_FALSE(cli::parseUint("99999999999999999999999", UINT64_MAX)
                   .has_value());
  // Leading zeros are fine; they are still a plain decimal.
  EXPECT_EQ(cli::parseUint("007", 100), 7u);
}

/// Runs parseArgs over a literal argv. Returns the exit status (-1 = ok).
int parse(std::vector<const char*> argv, cli::Options& out,
          std::string* errText = nullptr) {
  argv.insert(argv.begin(), "stsyn");
  std::ostringstream err;
  const int status =
      cli::parseArgs(static_cast<int>(argv.size()), argv.data(), out, err);
  if (errText != nullptr) *errText = err.str();
  return status;
}

TEST(ParseArgs, DefaultsAndBasicFlags) {
  cli::Options opt;
  ASSERT_EQ(parse({"p.stsyn"}, opt), -1);
  EXPECT_EQ(opt.mode, cli::Mode::Synth);
  EXPECT_EQ(opt.path, "p.stsyn");
  EXPECT_EQ(opt.timeoutMs, 0u);

  opt = {};
  ASSERT_EQ(parse({"p.stsyn", "--weak", "--quiet", "--timeout", "2500"}, opt),
            -1);
  EXPECT_EQ(opt.mode, cli::Mode::Weak);
  EXPECT_TRUE(opt.quiet);
  EXPECT_EQ(opt.timeoutMs, 2500u);
}

TEST(ParseArgs, EveryNumericFlagRejectsGarbage) {
  // Each case used to sail through atoi; now each exits 2 with a
  // diagnostic naming the flag.
  const std::vector<std::vector<const char*>> bad = {
      {"p.stsyn", "--portfolio", "2x"},
      {"p.stsyn", "--portfolio", "-1"},
      {"p.stsyn", "--max-pass", "0"},
      {"p.stsyn", "--max-pass", "4"},
      {"p.stsyn", "--max-pass", "two"},
      {"p.stsyn", "--timeout", "1.5"},
      {"p.stsyn", "--timeout", "-100"},
      {"serve", "--port", "65536"},
      {"serve", "--port", "http"},
      {"serve", "--workers", "0"},
      {"serve", "--workers", "-2"},
      {"serve", "--queue", "0"},
      {"serve", "--cache", "lots"},
  };
  for (const auto& argv : bad) {
    cli::Options opt;
    std::string err;
    EXPECT_EQ(parse(argv, opt, &err), 2)
        << "argv[1..]=" << argv[0] << " " << argv[1] << " " << argv[2];
    EXPECT_FALSE(err.empty());
  }
}

TEST(ParseArgs, NumericFlagsInRangeParse) {
  cli::Options opt;
  ASSERT_EQ(parse({"p.stsyn", "--portfolio", "4", "--max-pass", "2"}, opt),
            -1);
  EXPECT_EQ(opt.portfolio, 4u);
  EXPECT_EQ(opt.strong.maxPass, 2);
}

TEST(ParseArgs, ServeSubcommand) {
  cli::Options opt;
  ASSERT_EQ(parse({"serve", "--port", "9000", "--workers", "4", "--queue",
                   "32", "--cache", "128"},
                  opt),
            -1);
  EXPECT_EQ(opt.mode, cli::Mode::Serve);
  EXPECT_EQ(opt.servePort, 9000u);
  EXPECT_EQ(opt.serveWorkers, 4u);
  EXPECT_EQ(opt.serveQueueCapacity, 32u);
  EXPECT_EQ(opt.serveCacheCapacity, 128u);

  // serve takes no protocol file.
  opt = {};
  EXPECT_EQ(parse({"serve", "p.stsyn"}, opt), 2);
}

TEST(ParseArgs, ConflictingAndUnknownFlags) {
  cli::Options opt;
  EXPECT_EQ(parse({"p.stsyn", "--weak", "--verify"}, opt), 2);
  opt = {};
  EXPECT_EQ(parse({"p.stsyn", "--frobnicate"}, opt), 2);
  opt = {};
  EXPECT_EQ(parse({"p.stsyn", "--image-policy", "both"}, opt), 2);
  opt = {};
  EXPECT_EQ(parse({"p.stsyn", "--orbit-prune"}, opt), 2);
  opt = {};
  EXPECT_EQ(parse({"p.stsyn", "--var-order", "random"}, opt), 2);
}

TEST(Driver, DeadlineConvertsToReportNotException) {
  // A 0ns budget expires before the first fixpoint iteration; the driver
  // must absorb the CancelledError and report deadline_exceeded.
  const protocol::Protocol p = casestudies::tokenRing(5, 4);
  cli::Options opt;
  opt.quiet = true;
  opt.timeoutMs = 0;  // no deadline first: a normal run succeeds
  cli::Report report;
  std::ostringstream console;
  cli::RunOutcome ok = cli::runProtocol(p, opt, report, console, console);
  EXPECT_EQ(ok.exitCode, 0);
  EXPECT_FALSE(ok.deadlineExceeded);
  EXPECT_FALSE(report.deadlineExceeded);
  EXPECT_FALSE(ok.program.empty());

  cli::Report timedReport;
  cli::Options timed = opt;
  timed.timeoutMs = 1;  // expires during synthesis of a 4^5 state ring
  std::ostringstream console2;
  // May legitimately finish within 1ms on a fast machine; accept either
  // outcome but require consistency between outcome and report.
  const cli::RunOutcome r =
      cli::runProtocol(p, timed, timedReport, console2, console2);
  EXPECT_EQ(r.deadlineExceeded, timedReport.deadlineExceeded);
  if (r.deadlineExceeded) {
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_EQ(timedReport.failure, "deadline exceeded");
  }
}

TEST(Driver, StatsDocumentCarriesDeadlineAndCacheFields) {
  cli::Report report;
  report.protoName = "demo";
  report.haveProtocol = true;
  report.mode = "strong";
  const std::string doc = report.renderStatsJson();
  EXPECT_NE(doc.find("\"cache_hit\":false"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"deadline_exceeded\":false"), std::string::npos)
      << doc;
  report.deadlineExceeded = true;
  report.cacheHit = true;
  const std::string doc2 = report.renderStatsJson();
  EXPECT_NE(doc2.find("\"cache_hit\":true"), std::string::npos) << doc2;
  EXPECT_NE(doc2.find("\"deadline_exceeded\":true"), std::string::npos)
      << doc2;
}

}  // namespace
