/**
 * @file
 * Tests for the sacsimd wire protocol and session loop: request
 * parsing, event shapes, and full serveStream round trips proving the
 * end-to-end memoization contract — a resubmitted plan streams
 * byte-identical record lines without simulating anything.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

using service::Daemon;
using service::DaemonOptions;
using service::SweepCounts;
using service::SweepRequest;

/** Self-deleting temp directory, one per test. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    const std::string path;
};

/** A one-job request: tiny RN on SAC, tagged with @p id. */
std::string
tinyRequest(const std::string &id, const std::string &extra = "")
{
    return "{\"schema\":\"sac.sweep.v1\",\"id\":\"" + id + "\"," +
           extra +
           "\"plan\":[{\"benchmark\":\"RN\",\"org\":\"sac\","
           "\"scale\":8,\"apw\":64}]}";
}

std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

std::vector<std::string>
serve(Daemon &daemon, const std::string &input)
{
    std::istringstream in(input);
    std::ostringstream out;
    daemon.serveStream(in, out);
    return linesOf(out.str());
}

TEST(SweepProtocol, ParsesDefaultsAndExpandsOrgAll)
{
    const SweepRequest req = service::parseRequest(
        "{\"schema\":\"sac.sweep.v1\",\"id\":\"r7\",\"plan\":["
        "{\"benchmark\":\"CFD\"}]}");
    EXPECT_EQ(req.id, "r7");
    EXPECT_FALSE(req.provenance);
    ASSERT_EQ(req.plan.size(), 5u); // org defaults to "all"
    EXPECT_EQ(req.plan[0].org, OrgKind::MemorySide);
    EXPECT_EQ(req.plan[4].org, OrgKind::Sac);
    EXPECT_EQ(req.plan[0].seed, 1u);
    EXPECT_EQ(req.plan[0].profile.name, "CFD");
}

TEST(SweepProtocol, ParsesEveryJobSpecField)
{
    const SweepRequest req = service::parseRequest(
        "{\"schema\":\"sac.sweep.v1\",\"provenance\":true,\"plan\":["
        "{\"benchmark\":\"GEMM\",\"org\":\"dynamic\",\"seed\":9,"
        "\"scale\":8,\"inputScale\":0.5,\"coherence\":\"hw\","
        "\"sectors\":2,\"interChipBw\":64.0,\"apw\":128,"
        "\"label\":\"mine\"}]}");
    EXPECT_TRUE(req.provenance);
    ASSERT_EQ(req.plan.size(), 1u);
    const ExperimentJob &job = req.plan[0];
    EXPECT_EQ(job.org, OrgKind::DynamicLlc);
    EXPECT_EQ(job.seed, 9u);
    EXPECT_EQ(job.config.coherence, CoherenceKind::Hardware);
    EXPECT_EQ(job.config.sectorsPerLine, 2u);
    EXPECT_EQ(job.config.interChipBw, 64.0);
    EXPECT_EQ(job.label, "mine");
    for (const auto &phase : job.profile.phases)
        EXPECT_EQ(phase.accessesPerWarp, 128u);
}

TEST(SweepProtocol, RejectsMalformedRequests)
{
    EXPECT_THROW(service::parseRequest("{\"schema\":\"sac.sweep.v2\","
                                       "\"plan\":[{}]}"),
                 ValidationError);
    EXPECT_THROW(service::parseRequest(tinyRequest("x").substr(0, 40)),
                 std::exception); // truncated JSON
    EXPECT_THROW(
        service::parseRequest("{\"schema\":\"sac.sweep.v1\"}"),
        ValidationError); // no plan
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[]}"),
                 ValidationError); // empty plan
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
                     "\"org\":\"sac\"}]}"),
                 ValidationError); // missing benchmark
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
                     "\"benchmark\":\"RN\",\"org\":\"l2\"}]}"),
                 ValidationError); // unknown org
}

TEST(SweepProtocol, ScenarioSpecBuildsMultiTenantJobs)
{
    const SweepRequest req = service::parseRequest(
        "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
        "\"scenario\":[{\"benchmark\":\"CFD\"},"
        "{\"benchmark\":\"SRAD\",\"launchCycle\":4096,"
        "\"clusterShare\":2.0}],"
        "\"org\":\"sac\",\"seed\":5,\"label\":\"pair\"}]}");
    ASSERT_EQ(req.plan.size(), 1u);
    const ExperimentJob &job = req.plan[0];
    ASSERT_TRUE(job.hasScenario());
    ASSERT_EQ(job.scenario.streams.size(), 2u);
    EXPECT_EQ(job.scenario.streams[1].launchCycle, 4096u);
    EXPECT_EQ(job.org, OrgKind::Sac);
    EXPECT_EQ(job.seed, 5u);
    EXPECT_EQ(job.label, "pair");
    EXPECT_EQ(job.benchmarkName(), "CFD+SRAD");

    // "org": "all" expands scenario jobs like benchmark jobs.
    const SweepRequest all = service::parseRequest(
        "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
        "\"scenario\":[{\"benchmark\":\"RN\"},"
        "{\"benchmark\":\"BP\"}]}]}");
    EXPECT_EQ(all.plan.size(),
              ExperimentPlan::allOrganizations().size());
    EXPECT_EQ(all.plan[0].label, "RN+BP/Memory-side");
}

TEST(SweepProtocol, ScenarioSpecIsValidatedLikeTheFileReader)
{
    // benchmark and scenario are mutually exclusive.
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
                     "\"benchmark\":\"RN\","
                     "\"scenario\":[{\"benchmark\":\"CFD\"}]}]}"),
                 ValidationError);
    // Top-level apw/inputScale belong inside streams.
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
                     "\"scenario\":[{\"benchmark\":\"CFD\"}],"
                     "\"apw\":64}]}"),
                 ValidationError);
    // Per-stream bounds apply (apw 0 is rejected inside a stream).
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
                     "\"scenario\":[{\"benchmark\":\"CFD\","
                     "\"apw\":0}]}]}"),
                 ValidationError);
    // Empty streams array.
    EXPECT_THROW(service::parseRequest(
                     "{\"schema\":\"sac.sweep.v1\",\"plan\":[{"
                     "\"scenario\":[]}]}"),
                 ValidationError);
}

TEST(SweepProtocol, EventLinesCarrySchemaIdAndCounts)
{
    SweepRequest req;
    req.id = "abc";
    const json::Value done = json::parse(service::doneEvent(
        req, SweepCounts{5, 2, 3, 2}));
    EXPECT_EQ(done.at("schema").asString(), "sac.sweep-result.v1");
    EXPECT_EQ(done.at("id").asString(), "abc");
    EXPECT_EQ(done.at("event").asString(), "done");
    EXPECT_EQ(done.at("jobs").asU64(), 5u);
    EXPECT_EQ(done.at("simulated").asU64(), 2u);
    EXPECT_EQ(done.at("cacheHits").asU64(), 3u);
    EXPECT_EQ(done.at("cacheMisses").asU64(), 2u);
    EXPECT_FALSE(done.has("restored"));

    const json::Value err = json::parse(
        service::errorEvent("abc", "boom"));
    EXPECT_EQ(err.at("event").asString(), "error");
    EXPECT_EQ(err.at("message").asString(), "boom");
}

TEST(SacsimdSession, StreamsRecordsInPlanOrderThenDone)
{
    Daemon daemon(DaemonOptions{.jobs = 2});
    const auto lines = serve(
        daemon,
        "{\"schema\":\"sac.sweep.v1\",\"id\":\"s1\",\"plan\":["
        "{\"benchmark\":\"RN\",\"org\":\"all\",\"scale\":8,"
        "\"apw\":64}]}\n");
    ASSERT_EQ(lines.size(), 6u); // 5 records + done
    for (std::size_t i = 0; i < 5; ++i) {
        const json::Value v = json::parse(lines[i]);
        EXPECT_EQ(v.at("event").asString(), "record");
        EXPECT_EQ(v.at("id").asString(), "s1");
        EXPECT_EQ(v.at("jobIndex").asU64(), i);
        EXPECT_EQ(v.at("record").at("result").at("status").asString(),
                  "ok");
    }
    const json::Value done = json::parse(lines[5]);
    EXPECT_EQ(done.at("event").asString(), "done");
    EXPECT_EQ(done.at("jobs").asU64(), 5u);
    EXPECT_EQ(done.at("simulated").asU64(), 5u);
    EXPECT_EQ(done.at("cacheHits").asU64(), 0u);
}

TEST(SacsimdSession, ResubmittedPlanIsServedEntirelyFromCache)
{
    TempDir dir("sacsimd_memoize");
    Daemon daemon(DaemonOptions{.cacheDir = dir.path, .jobs = 2});

    const std::string request = tinyRequest("m1");
    const auto first = serve(daemon, request + "\n");
    ASSERT_EQ(first.size(), 2u);

    // Second submission — same session, and again on a fresh daemon
    // (a restart months later): zero System runs, byte-identical
    // record lines, and a done event reporting 100% cache hits.
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    const auto second = serve(daemon, request + "\n");
    Daemon restarted(DaemonOptions{.cacheDir = dir.path, .jobs = 2});
    const auto third = serve(restarted, request + "\n");
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs);

    ASSERT_EQ(second.size(), 2u);
    ASSERT_EQ(third.size(), 2u);
    EXPECT_EQ(second[0], first[0]);
    EXPECT_EQ(third[0], first[0]);
    for (const auto *lines : {&second, &third}) {
        const json::Value done = json::parse(lines->back());
        EXPECT_EQ(done.at("jobs").asU64(), 1u);
        EXPECT_EQ(done.at("cacheHits").asU64(), 1u);
        EXPECT_EQ(done.at("simulated").asU64(), 0u);
        EXPECT_EQ(done.at("cacheMisses").asU64(), 0u);
    }
}

TEST(SacsimdSession, ProvenanceIsOptInPerRecordSource)
{
    TempDir dir("sacsimd_provenance");
    Daemon daemon(DaemonOptions{.cacheDir = dir.path, .jobs = 1});
    const std::string request =
        tinyRequest("p1", "\"provenance\":true,");

    const auto cold = serve(daemon, request + "\n");
    const auto warm = serve(daemon, request + "\n");
    EXPECT_EQ(json::parse(cold[0]).at("source").asString(),
              "simulated");
    EXPECT_EQ(json::parse(warm[0]).at("source").asString(), "cache");

    // Without the flag the record lines carry no source at all — the
    // default stream is comparable across cache states.
    const auto plain = serve(daemon, tinyRequest("p2") + "\n");
    EXPECT_FALSE(json::parse(plain[0]).has("source"));
}

TEST(SacsimdSession, BadRequestsBecomeErrorEventsAndDoNotKillTheSession)
{
    Daemon daemon(DaemonOptions{.jobs = 1});
    const auto lines = serve(
        daemon,
        "this is not json\n"
        "\n"
        "{\"schema\":\"sac.sweep.v1\",\"id\":\"e1\",\"plan\":[{"
        "\"benchmark\":\"NOPE\"}]}\n" +
            tinyRequest("ok1") + "\n");
    ASSERT_EQ(lines.size(), 4u); // error, error, record, done
    EXPECT_EQ(json::parse(lines[0]).at("event").asString(), "error");
    const json::Value bad = json::parse(lines[1]);
    EXPECT_EQ(bad.at("event").asString(), "error");
    EXPECT_EQ(bad.at("id").asString(), "e1"); // id recovered
    EXPECT_NE(bad.at("message").asString().find("NOPE"),
              std::string::npos);
    EXPECT_EQ(json::parse(lines[2]).at("event").asString(), "record");
    EXPECT_EQ(json::parse(lines[3]).at("event").asString(), "done");
}

} // namespace
} // namespace sac
