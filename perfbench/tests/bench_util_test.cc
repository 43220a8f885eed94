/**
 * @file
 * Unit tests for the perfbench helpers: percentiles under the
 * ten-beyond tail rule, the result digest, fail_frac accounting and
 * the result line. Self-contained (no test framework); exits non-zero
 * on the first failed expectation.
 *
 *   .bench_build/perfbench/perfbench_test     (or: run.py --self-test)
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"

namespace {

using namespace perfbench;

int checks = 0;

#define EXPECT(cond)                                                       \
    do {                                                                   \
        ++checks;                                                          \
        if (!(cond)) {                                                     \
            std::cerr << __FILE__ << ":" << __LINE__                       \
                      << ": expectation failed: " #cond "\n";              \
            std::exit(1);                                                  \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
percentiles()
{
    EXPECT(percentile({}, 0.5) == 0.0);
    EXPECT(near(percentile(oneTo(5), 0.5), 3.0));
    EXPECT(near(percentile(oneTo(5), 0.0), 1.0));
    EXPECT(near(percentile(oneTo(5), 1.0), 5.0));
    EXPECT(near(percentile(oneTo(4), 0.25), 1.75));
    EXPECT(near(median(oneTo(4)), 2.5));
    EXPECT(mean({}) == 0.0);
    EXPECT(near(mean(oneTo(4)), 2.5));
    EXPECT(near(mean({1.0, 1.0, 10.0}), 4.0));
}

void
tenBeyondRule()
{
    // p99 needs 1000 samples, p90 needs 100.
    EXPECT(near(*highestSupportedPercentile(1000, 0.99), 0.99));
    EXPECT(*highestSupportedPercentile(999, 0.99) < 0.99);
    EXPECT(near(*highestSupportedPercentile(100, 0.9), 0.9));
    EXPECT(*highestSupportedPercentile(99, 0.9) < 0.9);

    EXPECT(!highestSupportedPercentile(10, 0.99));
    EXPECT(near(*highestSupportedPercentile(20, 0.99), 0.5));
    EXPECT(near(*highestSupportedPercentile(40, 0.99), 0.75));
    EXPECT(near(*highestSupportedPercentile(5000, 0.99), 0.99));

    const auto t = tail(oneTo(1000), 0.99);
    EXPECT(t && near(t->p, 0.99) && near(t->value, 990.01));
    const auto t50 = tail(oneTo(50), 0.99);
    EXPECT(t50 && near(t50->p, 0.8));
    EXPECT(!tail(oneTo(10), 0.99));
}

sac::RunResult
sample()
{
    sac::RunResult r;
    r.organization = "SAC";
    r.cycles = 48726;
    r.kernelCycles = {48726};
    r.accesses = 1376256;
    r.llcRequests = 1000;
    r.llcHits = 900;
    r.effLlcBw = 15.66;
    sac::SacDecision d;
    d.chosen = sac::LlcMode::SmSide;
    d.inputs.hitSm = 0.8;
    r.sacDecisions = {d};
    return r;
}

void
digests()
{
    const sac::RunResult a = sample();
    EXPECT(resultDigest(a) == resultDigest(sample()));

    sac::RunResult b = sample();
    b.llcHits += 1;
    EXPECT(resultDigest(b) != resultDigest(a));

    b = sample();
    b.effLlcBw = std::nextafter(b.effLlcBw, 100.0); // one ulp
    EXPECT(resultDigest(b) != resultDigest(a));

    b = sample();
    b.sacDecisions[0].chosen = sac::LlcMode::MemorySide;
    EXPECT(resultDigest(b) != resultDigest(a));

    b = sample();
    b.streams.emplace_back();
    EXPECT(resultDigest(b) != resultDigest(a));

    // Telemetry rides beside the simulated fields, not in the digest.
    b = sample();
    b.timeline.emplace();
    EXPECT(resultDigest(b) == resultDigest(a));

    EXPECT(hex64(0x1f) == "000000000000001f");
    EXPECT(hex64(resultDigest(a)).size() == 16);
}

void
failAccounting()
{
    FailTally t;
    EXPECT(t.attempted() == 0 && t.failFrac() == 0.0);
    t.add(true);
    t.add(true);
    t.add(false, "RN/SAC: failed");
    t.add(true);
    EXPECT(t.attempted() == 4);
    EXPECT(t.failed() == 1);
    EXPECT(near(t.failFrac(), 0.25));
    EXPECT(t.notes().size() == 1 && t.notes()[0] == "RN/SAC: failed");
    for (int i = 0; i < 20; ++i)
        t.add(false, "again");
    EXPECT(t.failed() == 21 && t.notes().size() == 8);
}

void
resultLines()
{
    const std::string l =
        resultLine(true, 12, 1, {{"wall_s", 2.5, "s"}, {"x", 0.1, "ms"}});
    const auto doc = sac::json::parse(l);
    EXPECT(doc.at("correct").boolean);
    EXPECT(doc.at("attempted").asU64() == 12);
    EXPECT(doc.at("failed").asU64() == 1);
    EXPECT(near(doc.at("metrics").at("wall_s").at("value").asDouble(), 2.5));
    EXPECT(doc.at("metrics").at("x").at("unit").asString() == "ms");
    // All digits survive the round trip.
    const double v = 1.0 / 3.0;
    const auto d = sac::json::parse(resultLine(false, 1, 0, {{"v", v, "s"}}));
    EXPECT(d.at("metrics").at("v").at("value").asDouble() == v);
    EXPECT(!d.at("correct").boolean);
}

} // namespace

int
main()
{
    percentiles();
    tenBeyondRule();
    digests();
    failAccounting();
    resultLines();
    std::cout << "perfbench_test: " << checks << " checks passed\n";
    return 0;
}
