/**
 * @file
 * Multi-tenant scenario runs through the KernelScheduler.
 *
 * Three contracts: (1) the one-stream scenario is the plain
 * run(kernels), byte-identical through lossless serialization;
 * (2) multi-stream runs are deterministic — same bytes with
 * fast-forward on or off and across repeated runs; (3) the per-stream
 * breakdown partitions the machine totals and round-trips through the
 * sac.results.v4 schema with v3 documents still readable.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

GpuConfig
tinyConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

WorkloadProfile
tinyProfile(const std::string &name)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 1;
    for (auto &phase : p.phases)
        phase.accessesPerWarp = 48;
    return p;
}

Scenario
twoStreams(Cycle second_launch = 0)
{
    Scenario scn;
    scn.streams.push_back(StreamSpec{tinyProfile("CFD"), 0, 1.0, 0});
    scn.streams.push_back(
        StreamSpec{tinyProfile("SRAD"), second_launch, 1.0, 0});
    return scn;
}

RunResult
runScenario(const Scenario &scn, OrgKind org, bool fast_forward)
{
    GpuConfig cfg = tinyConfig();
    StreamTraceMux mux(scn, cfg, 1);
    System system(cfg, org, mux);
    system.setFastForward(fast_forward);
    return system.run(scn);
}

TEST(MultiTenant, OneStreamScenarioIsTheLegacyRunExactly)
{
    const WorkloadProfile profile = tinyProfile("CFD");
    const GpuConfig cfg = tinyConfig();

    SharingTraceGen gen(profile, cfg, 1);
    System legacy(cfg, OrgKind::Sac, gen);
    const std::string want =
        result_io::toJson(legacy.run(kernelsFor(profile)));

    const std::string got = result_io::toJson(runScenario(
        Scenario::fromProfile(profile), OrgKind::Sac, true));
    EXPECT_EQ(want, got);
}

TEST(MultiTenant, TwoStreamsDeterministicAcrossFastForward)
{
    for (const OrgKind org : {OrgKind::MemorySide, OrgKind::Sac}) {
        const std::string ff =
            result_io::toJson(runScenario(twoStreams(), org, true));
        const std::string ref =
            result_io::toJson(runScenario(twoStreams(), org, false));
        const std::string again =
            result_io::toJson(runScenario(twoStreams(), org, true));
        EXPECT_EQ(ff, ref) << toString(org);
        EXPECT_EQ(ff, again) << toString(org);
    }
}

TEST(MultiTenant, PerStreamBreakdownPartitionsTheTotals)
{
    const RunResult r = runScenario(twoStreams(), OrgKind::Sac, true);
    ASSERT_EQ(r.streams.size(), 2u);

    std::uint64_t accesses = 0, l1_hits = 0, l1_misses = 0;
    std::uint64_t llc_requests = 0, llc_hits = 0;
    std::size_t kernels = 0;
    for (const auto &s : r.streams) {
        accesses += s.accesses;
        l1_hits += s.l1Hits;
        l1_misses += s.l1Misses;
        llc_requests += s.llcRequests;
        llc_hits += s.llcHits;
        kernels += s.kernelCycles.size();
        EXPECT_GT(s.accesses, 0u) << "stream " << s.stream;
        EXPECT_LE(s.finishCycle, r.cycles) << "stream " << s.stream;
        EXPECT_GE(s.finishCycle, s.launchCycle) << "stream " << s.stream;
    }
    EXPECT_EQ(accesses, r.accesses);
    EXPECT_EQ(l1_hits, r.l1Hits);
    EXPECT_EQ(l1_misses, r.l1Misses);
    EXPECT_EQ(llc_requests, r.llcRequests);
    EXPECT_EQ(llc_hits, r.llcHits);
    EXPECT_EQ(kernels, r.kernelCycles.size());
}

TEST(MultiTenant, StaggeredLaunchWaitsForItsCycle)
{
    const Cycle late = 2048;
    const RunResult r =
        runScenario(twoStreams(late), OrgKind::MemorySide, true);
    ASSERT_EQ(r.streams.size(), 2u);
    EXPECT_EQ(r.streams[0].launchCycle, 0u);
    EXPECT_GE(r.streams[1].launchCycle, late);
}

TEST(MultiTenant, OneStreamHonoursItsLaunchCycle)
{
    // A one-stream scenario runs through the same kernel flow as any
    // other, so its stream launches at its launchCycle too.
    const Cycle late = 2048;
    Scenario scn = Scenario::fromProfile(tinyProfile("CFD"));
    scn.streams[0].launchCycle = late;
    const GpuConfig cfg = tinyConfig();
    StreamTraceMux mux(scn, cfg, 1);
    System system(cfg, OrgKind::MemorySide, mux);
    telemetry::Options opts;
    opts.events = true;
    system.enableTelemetry(opts);
    const RunResult r = system.run(scn);

    ASSERT_TRUE(r.timeline.has_value());
    const auto &events = r.timeline->events;
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, telemetry::EventKind::KernelBegin);
    EXPECT_EQ(events.front().cycle, late);
    EXPECT_TRUE(r.streams.empty());
}

TEST(MultiTenant, PerTenantSacVerdictsLandPerStream)
{
    const RunResult r = runScenario(twoStreams(), OrgKind::Sac, true);
    ASSERT_EQ(r.streams.size(), 2u);
    // Every stream profiled at least once, and the flat decision list
    // holds exactly the union of the per-stream ones.
    std::size_t total = 0;
    for (const auto &s : r.streams) {
        EXPECT_FALSE(s.sacDecisions.empty()) << "stream " << s.stream;
        total += s.sacDecisions.size();
    }
    EXPECT_EQ(total, r.sacDecisions.size());
}

TEST(MultiTenant, V4DocumentRoundTripsAndTagsConservatively)
{
    RunRecord rec;
    rec.jobIndex = 0;
    rec.label = "CFD+SRAD/SAC";
    rec.benchmark = "CFD+SRAD";
    rec.seed = 1;
    rec.result = runScenario(twoStreams(), OrgKind::Sac, true);
    ASSERT_FALSE(rec.result.streams.empty());

    const std::string doc = result_io::toJson({rec});
    EXPECT_NE(doc.find("\"sac.results.v4\""), std::string::npos);

    const auto back = result_io::fromJson(doc);
    ASSERT_EQ(back.size(), 1u);
    ASSERT_EQ(back[0].result.streams.size(), 2u);
    EXPECT_EQ(result_io::toJson(back), doc); // lossless round trip

    // A plan with no scenario keeps the v3 tag byte-for-byte.
    RunRecord plain = rec;
    plain.result.streams.clear();
    const std::string v3 = result_io::toJson({plain});
    EXPECT_NE(v3.find("\"sac.results.v3\""), std::string::npos);
    EXPECT_EQ(v3.find("\"streams\""), std::string::npos);
    // ...and v3 documents stay readable (back-compat).
    EXPECT_TRUE(result_io::fromJson(v3)[0].result.streams.empty());
}

TEST(MultiTenant, CanonicalKeyAppendsScenarioOnlyWhenEngaged)
{
    ExperimentJob legacy;
    legacy.profile = tinyProfile("CFD");
    legacy.config = tinyConfig();
    legacy.org = OrgKind::Sac;
    const std::string legacy_key = canonicalJobKey(legacy);
    EXPECT_EQ(legacy_key.find("scenario."), std::string::npos);

    ExperimentJob multi = legacy;
    multi.scenario = twoStreams();
    const std::string multi_key = canonicalJobKey(multi);
    // The legacy key is a strict prefix: pre-scenario keys (and the
    // cache entries hashed from them) are byte-unchanged.
    ASSERT_LT(legacy_key.size(), multi_key.size());
    EXPECT_EQ(multi_key.compare(0, legacy_key.size(), legacy_key), 0);
    EXPECT_NE(multi_key.find("scenario.numStreams=2;"),
              std::string::npos);
    EXPECT_NE(contentHash(legacy), contentHash(multi));
}

} // namespace
} // namespace sac
