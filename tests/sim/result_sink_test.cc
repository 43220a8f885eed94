/**
 * @file
 * Tests for the ResultSink delivery path: plan-ordered deterministic
 * delivery for any worker count, the results document of an empty
 * plan, and RecordSource serialization.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

/** Small but real configuration so plans finish in milliseconds. */
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
    p.phases[0].accessesPerWarp = 32;
    return p;
}

ExperimentPlan
sixJobPlan()
{
    ExperimentPlan plan;
    for (const char *name : {"RN", "GEMM"}) {
        plan.addOrgSweep(tinyProfile(name), tinyConfig(),
                         {OrgKind::MemorySide, OrgKind::SmSide,
                          OrgKind::Sac});
    }
    return plan;
}

/** Records the exact delivery sequence it observes. */
class RecordingSink : public ResultSink
{
  public:
    void
    onRecord(const EngineProgress &event) override
    {
        const std::lock_guard<std::mutex> hold(mutex_);
        indices.push_back(event.record.jobIndex);
        completed.push_back(event.completed);
        labels.push_back(event.job.label);
    }

    void
    onDone(const EngineDone &done) override
    {
        const std::lock_guard<std::mutex> hold(mutex_);
        doneCalls.push_back(done.total);
    }

    std::vector<std::size_t> indices;
    std::vector<std::size_t> completed;
    std::vector<std::string> labels;
    std::vector<std::size_t> doneCalls;

  private:
    std::mutex mutex_;
};

TEST(ResultSink, DeliveryIsPlanOrderedForAnyWorkerCount)
{
    const ExperimentPlan plan = sixJobPlan();
    for (const unsigned threads : {1u, 2u, 8u}) {
        ExperimentEngine engine(threads);
        RecordingSink sink;
        engine.addSink(sink);
        engine.run(plan);

        // Identical delivery sequence regardless of completion order:
        // jobIndex 0..n-1, completed counting 1..n, labels matching,
        // exactly one onDone after everything.
        ASSERT_EQ(sink.indices.size(), plan.size()) << threads;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            EXPECT_EQ(sink.indices[i], i) << threads;
            EXPECT_EQ(sink.completed[i], i + 1) << threads;
            EXPECT_EQ(sink.labels[i], plan[i].label) << threads;
        }
        ASSERT_EQ(sink.doneCalls.size(), 1u) << threads;
        EXPECT_EQ(sink.doneCalls[0], plan.size()) << threads;
    }
}

TEST(ResultSink, MultipleSinksFireInAttachmentOrder)
{
    std::vector<int> order;
    class TaggingSink : public ResultSink
    {
      public:
        TaggingSink(std::vector<int> &order, int tag)
            : order_(order), tag_(tag)
        {}
        void
        onRecord(const EngineProgress &) override
        {
            order_.push_back(tag_);
        }

      private:
        std::vector<int> &order_;
        int tag_;
    };

    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    TaggingSink first(order, 1), second(order, 2);
    ExperimentEngine engine(2);
    engine.addSink(first);
    engine.addSink(second);
    engine.run(plan);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(JsonDocumentSink, EmptyPlanStillProducesACompleteDocument)
{
    // The batch writer behind sacsim --json, fed an empty plan's
    // records: still one complete v3 document and its newline.
    ExperimentEngine engine(1);
    const auto records = engine.run(ExperimentPlan{});
    EXPECT_TRUE(records.empty());

    std::ostringstream batch;
    result_io::write(batch, records);
    EXPECT_EQ(batch.str(), "{\"schema\":\"sac.results.v3\",\"results\":[]}\n");
    EXPECT_TRUE(result_io::fromJson(batch.str()).empty());
}

TEST(RecordSource, NamesRoundTripAndVolatileSerialization)
{
    for (const auto source : {RecordSource::Simulated, RecordSource::Cache}) {
        EXPECT_EQ(recordSourceFromName(toString(source)), source);
    }
    EXPECT_THROW(recordSourceFromName("teleported"), ValidationError);

    RunRecord rec;
    rec.label = "x";
    rec.source = RecordSource::Cache;
    // Canonical JSON omits the source (like wallMs); timing keeps it.
    const std::string canonical = result_io::recordToJson(rec);
    EXPECT_EQ(canonical.find("\"source\""), std::string::npos);
    const std::string timed = result_io::recordToJson(
        rec, result_io::WriteOptions{.timing = true});
    EXPECT_NE(timed.find("\"source\":\"cache\""), std::string::npos);
    EXPECT_EQ(result_io::recordFromJson(timed).source,
              RecordSource::Cache);
    // Absent source defaults to simulated on read.
    EXPECT_EQ(result_io::recordFromJson(canonical).source,
              RecordSource::Simulated);
}

} // namespace
} // namespace sac
