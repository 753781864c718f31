/**
 * @file
 * The uniform flag-error contract, asserted against the real
 * binaries: every unknown flag and every malformed value makes
 * pmtest_check, pmtest_recall and pmtest_seed_corpus print a
 * diagnostic plus their usage text to stderr and exit 2, and --help
 * prints usage to stdout and exits 0. Binary paths are injected by
 * CMake (PMTEST_*_BIN).
 */

#include <gtest/gtest.h>

#include <string>

#include "tests/tools/tool_driver.hh"

namespace
{

using pmtest::testtools::RunResult;
using pmtest::testtools::run;

void
expectUsageError(const std::string &bin, const std::string &args,
                 const std::string &needle)
{
    const RunResult r = run(bin + " " + args);
    EXPECT_EQ(r.exitCode, 2) << bin << " " << args;
    EXPECT_NE(r.stderrText.find("usage:"), std::string::npos)
        << bin << " " << args << " stderr: " << r.stderrText;
    EXPECT_NE(r.stderrText.find(needle), std::string::npos)
        << bin << " " << args << " stderr: " << r.stderrText;
}

const char *const kAllBins[] = {PMTEST_CHECK_BIN, PMTEST_RECALL_BIN,
                                PMTEST_SEED_BIN};

TEST(UsageErrorsTest, UnknownFlagExitsTwoOnEveryTool)
{
    for (const char *bin : kAllBins)
        expectUsageError(bin, "--no-such-flag",
                         "unknown option '--no-such-flag'");
}

TEST(UsageErrorsTest, HelpExitsZeroOnEveryTool)
{
    for (const char *bin : kAllBins) {
        const RunResult r = run(std::string(bin) + " --help");
        EXPECT_EQ(r.exitCode, 0) << bin;
        EXPECT_NE(r.stdoutText.find("usage:"), std::string::npos)
            << bin;
        EXPECT_TRUE(r.stderrText.empty()) << bin;
    }
    // String flags name their value: --worker takes a shard spec.
    const RunResult r = run(std::string(PMTEST_CHECK_BIN) + " --help");
    EXPECT_NE(r.stdoutText.find("--worker=i/N"), std::string::npos)
        << r.stdoutText;
}

TEST(UsageErrorsTest, CheckRejectsBadValues)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--workers=abc x.trace",
                     "invalid value for --workers: 'abc'");
    expectUsageError(bin, "--max-findings= x.trace",
                     "invalid value for --max-findings: ''");
    expectUsageError(bin, "--model=sparc x.trace",
                     "(choices: x86, hops, arm)");
    expectUsageError(bin, "--metrics-port=99999 x.trace",
                     "(max 65535)");
    expectUsageError(bin, "--quiet=1 x.trace",
                     "--quiet takes no value");
    expectUsageError(bin, "", "usage:"); // missing positional
}

TEST(UsageErrorsTest, CheckRejectsBadDistributedSpecs)
{
    const std::string bin = PMTEST_CHECK_BIN;
    expectUsageError(bin, "--worker=nonsense x.trace",
                     "invalid value for --worker: 'nonsense'");
    expectUsageError(bin, "--worker=3/2 --report-out=r x.trace",
                     "out of range");
    expectUsageError(bin, "--worker=0/2 x.trace",
                     "--worker needs --report-out=FILE");
    expectUsageError(bin, "--distribute=abc x.trace",
                     "invalid value for --distribute: 'abc'");
    expectUsageError(bin,
                     "--distribute=2 --worker=0/2 --report-out=r "
                     "x.trace",
                     "mutually exclusive");
    expectUsageError(bin, "--distribute=2 --stats x.trace",
                     "--stats is per-process");
}

TEST(UsageErrorsTest, RecallRejectsBadValues)
{
    const std::string bin = PMTEST_RECALL_BIN;
    expectUsageError(bin, "--metrics-port=notaport",
                     "invalid value for --metrics-port: 'notaport'");
    expectUsageError(bin, "--json=", "--json needs a value");
    expectUsageError(bin, "unexpected-positional",
                     "unexpected argument 'unexpected-positional'");
}

TEST(UsageErrorsTest, SeedCorpusRejectsBadArgCounts)
{
    const std::string bin = PMTEST_SEED_BIN;
    expectUsageError(bin, "", "usage:"); // missing out path
    expectUsageError(bin, "a.trace b.trace",
                     "unexpected argument 'b.trace'");
}

} // namespace
