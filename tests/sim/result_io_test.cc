/** @file Round-trip tests for the JSON result serialization. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/log.hh"
#include "sim/result_io.hh"

namespace sac {
namespace {

/** A RunResult exercising every field, with awkward doubles. */
RunResult
fullResult()
{
    RunResult r;
    r.organization = "SAC";
    r.cycles = 123456789;
    r.kernelCycles = {100, 200, 123456489};
    r.accesses = 1u << 20;
    r.l1Hits = 999999;
    r.l1Misses = 48577;
    r.llcRequests = 50000;
    r.llcHits = 43210;
    r.effLlcBw = 14.833491994807442;
    r.bwLocalLlc = 12.534725227174384;
    r.bwRemoteLlc = 0.25845954132410209;
    r.bwLocalMem = 1.0 / 3.0;
    r.bwRemoteMem = 2.0 / 7.0;
    r.llcRemoteFraction = 0.43766344375683491;
    r.avgLoadLatency = 118.04611357120015;
    r.icnBytes = 11506640;
    r.dramBytes = 16147584;
    r.invalidations = 42;
    r.reconfigurations = 3;
    r.flushStallCycles = 7373;

    SacDecision d;
    d.kernel = 1;
    d.chosen = LlcMode::SmSide;
    d.eab.memSide = {1338.2338893672368, 384.0};
    d.eab.smSide = {1244.6109325264893, 1986.7567517723419};
    d.inputs.rLocal = 0.38516537086572833;
    d.inputs.lsuMem = 0.90418173598553353;
    d.inputs.lsuSm = 0.87875659050966626;
    d.inputs.hitMem = 0.81717742338649202;
    d.inputs.hitSm = 0.77328936521022262;
    r.sacDecisions.push_back(d);
    return r;
}

TEST(ResultIo, RunResultRoundTripsBitForBit)
{
    const RunResult original = fullResult();
    const std::string json = result_io::toJson(original);
    const RunResult back = result_io::runResultFromJson(json);

    // Lossless: re-serializing the parsed result reproduces the
    // document byte for byte, which covers every field at once.
    EXPECT_EQ(result_io::toJson(back), json);

    // Spot checks, including exact doubles.
    EXPECT_EQ(back.organization, "SAC");
    EXPECT_EQ(back.cycles, original.cycles);
    EXPECT_EQ(back.kernelCycles, original.kernelCycles);
    EXPECT_EQ(back.effLlcBw, original.effLlcBw);
    EXPECT_EQ(back.bwLocalMem, original.bwLocalMem);
    ASSERT_EQ(back.sacDecisions.size(), 1u);
    EXPECT_EQ(back.sacDecisions[0].chosen, LlcMode::SmSide);
    EXPECT_EQ(back.sacDecisions[0].eab.smSide.remote,
              original.sacDecisions[0].eab.smSide.remote);
    EXPECT_EQ(back.sacDecisions[0].inputs.hitSm,
              original.sacDecisions[0].inputs.hitSm);
}

TEST(ResultIo, DocumentRoundTripsThroughStreams)
{
    RunRecord a;
    a.jobIndex = 0;
    a.label = "RN/\"quoted\"\nlabel";
    a.benchmark = "RN";
    a.seed = 7;
    a.wallMs = 12.75;
    a.queueMs = 1.5;
    a.worker = 3;
    a.result = fullResult();

    RunRecord b;
    b.jobIndex = 1;
    b.label = "GEMM/Memory-side";
    b.benchmark = "GEMM";
    b.seed = 1;
    b.wallMs = 0.125;
    b.result.organization = "Memory-side";
    b.result.cycles = 1;

    // Timing fields survive a round trip when explicitly requested.
    std::stringstream ss;
    result_io::write(ss, {a, b}, {.timing = true});
    const auto back = result_io::read(ss);

    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].label, a.label);
    EXPECT_EQ(back[0].seed, 7u);
    EXPECT_EQ(back[0].wallMs, 12.75);
    EXPECT_EQ(back[0].queueMs, 1.5);
    EXPECT_EQ(back[0].worker, 3);
    EXPECT_EQ(result_io::toJson(back[0].result),
              result_io::toJson(a.result));
    EXPECT_EQ(back[1].benchmark, "GEMM");
    EXPECT_EQ(back[1].result.cycles, 1u);

    // The default document omits them: volatile wall-clock data would
    // break byte-identity across runs and worker counts.
    std::stringstream deterministic;
    result_io::write(deterministic, {a, b});
    const std::string doc = deterministic.str();
    EXPECT_EQ(doc.find("wallMs"), std::string::npos);
    EXPECT_EQ(doc.find("queueMs"), std::string::npos);
    EXPECT_EQ(doc.find("worker"), std::string::npos);
    const auto stripped = result_io::fromJson(doc);
    ASSERT_EQ(stripped.size(), 2u);
    EXPECT_EQ(stripped[0].wallMs, 0.0);
    EXPECT_EQ(stripped[0].worker, 0u);
    EXPECT_EQ(result_io::toJson(stripped[0].result),
              result_io::toJson(a.result));
}

TEST(ResultIo, RejectsMalformedInput)
{
    EXPECT_THROW(result_io::fromJson("{"), FatalError);
    EXPECT_THROW(result_io::fromJson("[]"), FatalError);
    EXPECT_THROW(result_io::fromJson("{\"schema\":\"nope\"}"),
                 FatalError);
    EXPECT_THROW(result_io::runResultFromJson("{\"cycles\":1}"),
                 FatalError);
    EXPECT_THROW(result_io::fromJson(
                     "{\"schema\":\"sac.results.v3\",\"results\":["
                     "{\"jobIndex\":0}]}"),
                 FatalError);
}

TEST(ResultIo, ParsesInsignificantWhitespace)
{
    const std::string json =
        "{ \"schema\" : \"sac.results.v3\" ,\n \"results\" : [ ] }";
    EXPECT_TRUE(result_io::fromJson(json).empty());
}

TEST(ResultIo, WriterEmitsV3AndReaderRejectsOlderSchemas)
{
    RunRecord rec;
    rec.label = "RN/SAC";
    rec.benchmark = "RN";
    rec.result = fullResult();
    const std::string json = result_io::toJson({rec});
    const std::string v3_tag = "\"schema\":\"sac.results.v3\"";
    EXPECT_NE(json.find(v3_tag), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
    // A job runs once; the frozen field keeps the v3 bytes unchanged.
    EXPECT_NE(json.find("\"seed\":1,\"attempts\":1,\"result\":"),
              std::string::npos);
    ASSERT_EQ(result_io::fromJson(json).size(), 1u);

    // Pre-v3 tags are refused, even over v3-shaped records.
    for (const std::string old_tag :
         {"\"schema\":\"sac.results.v1\"", "\"schema\":\"sac.results.v2\""}) {
        std::string old_doc = json;
        old_doc.replace(old_doc.find(v3_tag), v3_tag.size(), old_tag);
        EXPECT_THROW(result_io::fromJson(old_doc), FatalError) << old_tag;
    }

    // status and diagnostic are required on read; attempts is ignored.
    for (const std::string cut :
         {"\"status\":\"ok\",", "\"diagnostic\":\"\","}) {
        std::string doc = json;
        doc.erase(doc.find(cut), cut.size());
        EXPECT_THROW(result_io::fromJson(doc), FatalError) << cut;
    }
    const std::string attempts = "\"attempts\":1,";
    std::string no_attempts = json;
    no_attempts.erase(no_attempts.find(attempts), attempts.size());
    EXPECT_EQ(result_io::toJson(result_io::fromJson(no_attempts)), json);
}

TEST(ResultIo, FailedRecordRoundTripsStatusAndDiagnostic)
{
    RunRecord rec;
    rec.label = "RN/SAC";
    rec.benchmark = "RN";
    rec.result.organization = "SAC";
    rec.result.status = RunStatus::Livelocked;
    rec.result.diagnostic = "kernel 0 exceeded 1000 cycles";

    const std::string json = result_io::toJson({rec});
    const auto back = result_io::fromJson(json);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].result.status, RunStatus::Livelocked);
    EXPECT_EQ(back[0].result.diagnostic, rec.result.diagnostic);
    EXPECT_EQ(result_io::toJson(back), json);
}

} // namespace
} // namespace sac
