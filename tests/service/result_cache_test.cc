/**
 * @file
 * Tests for the persistent content-addressed result cache: hit
 * byte-identity across every organization and both sharing shapes,
 * precise invalidation on content changes, tolerance of torn and
 * corrupted entries, atomicity under concurrent writers, and the
 * eligibility rules.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "service/result_cache.hh"
#include "sim/engine.hh"
#include "sim/fault_injection.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

using service::ResultCache;

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
tinyProfile(const std::string &name, std::uint64_t apw = 32)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = apw;
    return p;
}

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

/** One benchmark of each sharing shape (SM-side and memory-side
 *  preferred), so both reconfiguration behaviours hit the cache. */
std::vector<std::string>
bothSharingShapes()
{
    std::string sp, mp;
    for (const auto &p : benchmarkSuite()) {
        (p.smSidePreferred ? sp : mp) = p.name;
        if (!sp.empty() && !mp.empty())
            break;
    }
    return {sp, mp};
}

/** All five organizations for both sharing shapes: 10 jobs. */
ExperimentPlan
fullPlan()
{
    ExperimentPlan plan;
    for (const auto &name : bothSharingShapes())
        plan.addOrgSweep(tinyProfile(name), tinyConfig());
    return plan;
}

std::string
docOf(const std::vector<RunRecord> &records)
{
    return result_io::toJson(records);
}

std::vector<RunRecord>
runWithCache(const ExperimentPlan &plan, ResultCache &cache,
             unsigned threads = 2, EngineTelemetry *tm = nullptr)
{
    ExperimentEngine engine(threads);
    engine.setCache(&cache);
    return engine.run(plan, tm);
}

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        invalid(path, "cannot open file to damage");
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os)
        invalid(path, "cannot rewrite damaged file");
}

/**
 * Truncates the file at @p path to its first @p keep_bytes bytes:
 * the "process was SIGKILLed mid-write" artifact.
 */
void
truncateFile(const std::string &path, std::size_t keep_bytes)
{
    std::vector<char> bytes = readBytes(path);
    if (keep_bytes < bytes.size())
        bytes.resize(keep_bytes);
    writeBytes(path, bytes);
}

/**
 * Flips every bit of the byte at @p offset in @p path (clamped to
 * the last byte), producing a corrupt-but-same-length file.
 */
void
corruptFile(const std::string &path, std::size_t offset)
{
    std::vector<char> bytes = readBytes(path);
    if (bytes.empty())
        invalid(path, "cannot corrupt an empty file");
    offset = std::min(offset, bytes.size() - 1);
    bytes[offset] = static_cast<char>(~bytes[offset]);
    writeBytes(path, bytes);
}

TEST(ResultCache, HitsAreByteIdenticalAcrossAllOrgsAndShapes)
{
    const ExperimentPlan plan = fullPlan();
    const std::string reference = docOf(ExperimentEngine(2).run(plan));

    TempDir dir("sac_cache_identity");
    ResultCache cache(dir.path);
    EngineTelemetry cold_tm;
    EXPECT_EQ(docOf(runWithCache(plan, cache, 2, &cold_tm)), reference);
    EXPECT_EQ(cold_tm.cacheHits, 0u);
    EXPECT_EQ(cold_tm.cacheMisses, plan.size());
    EXPECT_EQ(cache.stats().stores, plan.size());

    // Second run through a *fresh* cache instance on the same
    // directory: everything is served from disk, nothing simulates,
    // and the document is byte-identical.
    ResultCache warm(dir.path);
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EngineTelemetry warm_tm;
    EXPECT_EQ(docOf(runWithCache(plan, warm, 2, &warm_tm)), reference);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs);
    EXPECT_EQ(warm_tm.cacheHits, plan.size());
    EXPECT_EQ(warm_tm.cacheMisses, 0u);
    EXPECT_EQ(warm.stats().hits, plan.size());
}

TEST(ResultCache, ChangedConfigFieldMissesOnlyTheChangedJobs)
{
    TempDir dir("sac_cache_invalidate");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig(),
                     {OrgKind::MemorySide, OrgKind::SmSide,
                      OrgKind::Sac});
    runWithCache(plan, cache);

    // Same three jobs, but the SM-side one now runs with hardware
    // coherence: exactly that job re-simulates, the others hit.
    ExperimentPlan changed;
    GpuConfig hw = tinyConfig();
    hw.coherence = CoherenceKind::Hardware;
    changed.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    changed.add(tinyProfile("RN"), hw, OrgKind::SmSide);
    changed.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);

    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EngineTelemetry tm;
    const auto records = runWithCache(changed, cache, 2, &tm);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 1);
    EXPECT_EQ(tm.cacheHits, 2u);
    EXPECT_EQ(tm.cacheMisses, 1u);
    for (const auto &rec : records)
        EXPECT_EQ(rec.result.status, RunStatus::Ok);
    EXPECT_EQ(records[1].source, RecordSource::Simulated);
    EXPECT_EQ(records[0].source, RecordSource::Cache);
}

TEST(ResultCache, TornCorruptAndWrongSchemaEntriesReSimulate)
{
    const ExperimentPlan plan = [] {
        ExperimentPlan p;
        p.addOrgSweep(tinyProfile("GEMM"), tinyConfig(),
                      {OrgKind::MemorySide, OrgKind::SmSide,
                       OrgKind::Sac});
        return p;
    }();
    const std::string reference = docOf(ExperimentEngine(1).run(plan));

    TempDir dir("sac_cache_damage");
    {
        ResultCache cache(dir.path);
        EXPECT_EQ(docOf(runWithCache(plan, cache)), reference);
    }

    // Damage all three entries differently: truncate one mid-record
    // (a torn write without the rename protocol), flip a byte in
    // another, and rewrite the third with the wrong schema tag.
    ResultCache cache(dir.path);
    const auto entry = [&](std::size_t i) {
        return cache.entryPath(plan[i]);
    };
    truncateFile(entry(0), 40);
    corruptFile(
        entry(1), std::filesystem::file_size(entry(1)) / 2);
    {
        std::ofstream os(entry(2));
        os << "{\"schema\":\"sac.cache.v2\",\"record\":{}}\n";
    }

    const auto records = runWithCache(plan, cache);
    EXPECT_EQ(docOf(records), reference);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_GE(cache.stats().rejected, 2u); // corruptFile may stay JSON
    EXPECT_EQ(cache.stats().stores, 3u);   // all three re-persisted

    // The repaired entries serve the next run.
    ResultCache repaired(dir.path);
    EXPECT_EQ(docOf(runWithCache(plan, repaired)), reference);
    EXPECT_EQ(repaired.stats().hits, 3u);
}

TEST(ResultCache, KeyMismatchedEntryIsRejectedNotServed)
{
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    const std::string reference = docOf(ExperimentEngine(1).run(plan));

    TempDir dir("sac_cache_collision");
    ResultCache cache(dir.path);
    runWithCache(plan, cache);

    // Simulate a hash collision: put the Memory-side entry's bytes at
    // the SAC job's path. The stored canonical key exposes the lie.
    std::filesystem::copy_file(
        cache.entryPath(plan[0]), cache.entryPath(plan[1]),
        std::filesystem::copy_options::overwrite_existing);

    ResultCache fresh(dir.path);
    EXPECT_EQ(docOf(runWithCache(plan, fresh)), reference);
    EXPECT_EQ(fresh.stats().hits, 1u);
    EXPECT_EQ(fresh.stats().rejected, 1u);
}

TEST(ResultCache, ConcurrentWritersDoNotCorruptEntries)
{
    ExperimentJob job{tinyProfile("RN"), tinyConfig(), OrgKind::Sac};
    const RunRecord record = ExperimentEngine::runJob(job);

    TempDir dir("sac_cache_racing");
    ResultCache cache(dir.path);
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
        writers.emplace_back(
            [&] {
                for (int i = 0; i < 25; ++i)
                    cache.store(job, record);
            });
    }
    for (auto &w : writers)
        w.join();

    // Every store atomically renamed a complete file into place, so
    // the entry parses and round-trips no matter how the writes raced.
    EXPECT_EQ(cache.stats().stores, 200u);
    ResultCache reader(dir.path);
    const auto hit = reader.lookup(job);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(result_io::toJson(hit->result),
              result_io::toJson(record.result));
    // No temporary files left behind.
    std::size_t files = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(ResultCache, TelemetryAndFaultJobsBypassTheCache)
{
    ExperimentJob plain{tinyProfile("RN"), tinyConfig(), OrgKind::Sac};
    EXPECT_TRUE(cacheEligible(plain));

    ExperimentJob telemetered = plain;
    telemetered.telemetry.epoch = 512;
    EXPECT_FALSE(cacheEligible(telemetered));

    ExperimentJob faulted = plain;
    faulted.fault = FaultSpec::fatalAt(100);
    EXPECT_FALSE(cacheEligible(faulted));

    // A telemetry-enabled sweep never touches the cache in either
    // direction — a cached plain record must not be served where a
    // timeline is expected, and timelines must not be persisted.
    TempDir dir("sac_cache_bypass");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    telemetry::Options topts;
    topts.epoch = 512;
    plan.enableTelemetry(topts);
    for (int pass = 0; pass < 2; ++pass) {
        const auto records = runWithCache(plan, cache);
        ASSERT_TRUE(records[0].result.timeline.has_value());
    }
    EXPECT_EQ(cache.stats().hits + cache.stats().misses +
                  cache.stats().stores,
              0u);
}

TEST(ResultCache, FailedRecordsAreNotCached)
{
    TempDir dir("sac_cache_failures");
    ResultCache cache(dir.path);

    // The faulted job bypasses the cache entirely; a watchdog-limited
    // job is eligible, but its timed-out record must not persist.
    ExperimentPlan plan;
    ExperimentJob job;
    job.profile = tinyProfile("RN", 4096);
    job.config = tinyConfig();
    job.org = OrgKind::MemorySide;
    job.limits.maxCycles = 500;
    plan.add(std::move(job));

    const auto first = runWithCache(plan, cache);
    EXPECT_EQ(first[0].result.status, RunStatus::TimedOut);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(std::filesystem::exists(cache.entryPath(plan[0])));

    // Rerunning re-simulates (and times out again) instead of
    // serving a poisoned entry.
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    const auto second = runWithCache(plan, cache);
    EXPECT_EQ(second[0].result.status, RunStatus::TimedOut);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 1);
}

TEST(ResultCache, InterruptedSweepResumesFromTheCache)
{
    const auto threeOrgs = [] {
        ExperimentPlan plan;
        plan.addOrgSweep(tinyProfile("RN"), tinyConfig(),
                         {OrgKind::MemorySide, OrgKind::SmSide,
                          OrgKind::Sac});
        return plan;
    };
    const std::string reference =
        docOf(ExperimentEngine(1).run(threeOrgs()));

    // The interrupted sweep: one job dies mid-run, so only the other
    // two ok records reach the cache.
    TempDir dir("sac_cache_resume");
    {
        ExperimentPlan plan = threeOrgs();
        plan.setFaultPlan(FaultPlan().fail(
            "RN/SM-side", FaultSpec::fatalAt(100)));
        ResultCache cache(dir.path);
        const auto records = runWithCache(plan, cache);
        EXPECT_EQ(records[1].result.status, RunStatus::Failed);
        EXPECT_EQ(cache.stats().stores, 2u);
    }

    // Resuming is rerunning on the same directory: the stored jobs
    // hit, exactly the missing one simulates, and the document is
    // the uninterrupted one.
    ResultCache cache(dir.path);
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EngineTelemetry tm;
    const auto records = runWithCache(threeOrgs(), cache, 2, &tm);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 1);
    EXPECT_EQ(tm.cacheHits, 2u);
    EXPECT_EQ(records[1].source, RecordSource::Simulated);
    EXPECT_EQ(docOf(records), reference);
}

TEST(ResultCache, CachedRecordsRestampVolatileFields)
{
    TempDir dir("sac_cache_restamp");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac, 1,
             "first label");
    runWithCache(plan, cache);

    // Same content, different label and position: the served record
    // carries *this* plan's bookkeeping, not the storing run's.
    ExperimentPlan relabelled;
    relabelled.add(tinyProfile("GEMM"), tinyConfig(), OrgKind::Sac);
    relabelled.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac, 1,
                   "second label");
    const auto records = runWithCache(relabelled, cache);
    EXPECT_EQ(records[1].jobIndex, 1u);
    EXPECT_EQ(records[1].label, "second label");
    EXPECT_EQ(records[1].source, RecordSource::Cache);
    EXPECT_EQ(records[1].wallMs, 0.0);
    EXPECT_EQ(records[1].worker, 0u);
}

TEST(ResultCache, UnwritableDirectoryThrows)
{
    EXPECT_THROW(ResultCache("/proc/definitely/not/writable"),
                 ValidationError);
}

/** Stamps every entry of @p plan with a known age: job i's entry is
 *  (plan.size() - i) minutes old, so job 0 is the oldest. */
void
stampAges(ResultCache &cache, const ExperimentPlan &plan)
{
    namespace fs = std::filesystem;
    const auto now = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i)
        fs::last_write_time(
            cache.entryPath(plan[i]),
            now - std::chrono::minutes(plan.size() - i));
}

TEST(ResultCachePrune, EvictsOldestEntriesFirstUnderAnEntryBudget)
{
    TempDir dir("sac_cache_prune_lru");
    ResultCache cache(dir.path);
    const ExperimentPlan plan = fullPlan(); // 10 jobs, 10 entries
    runWithCache(plan, cache);
    stampAges(cache, plan);

    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 3});
    EXPECT_TRUE(report.ran);
    EXPECT_EQ(report.scannedEntries, plan.size());
    EXPECT_EQ(report.removedEntries, plan.size() - 3);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(std::filesystem::exists(cache.entryPath(plan[i])),
                  i >= plan.size() - 3)
            << "job " << i;
    }
    // Survivors are intact entries, never partially pruned ones.
    EXPECT_EQ(cache.verify().rejected, 0u);
}

TEST(ResultCachePrune, EnforcesTheByteBudgetTolerantly)
{
    TempDir dir("sac_cache_prune_bytes");
    ResultCache cache(dir.path);
    runWithCache(fullPlan(), cache);

    const auto before = cache.verify();
    ASSERT_GT(before.bytes, 0u);
    const std::uint64_t budget = before.bytes / 2;
    const auto report =
        cache.prune(ResultCache::Budget{.maxBytes = budget});
    EXPECT_TRUE(report.ran);
    EXPECT_GT(report.removedEntries, 0u);
    const auto after = cache.verify();
    EXPECT_LE(after.bytes, budget);
    EXPECT_EQ(after.rejected, 0u);
    EXPECT_EQ(after.bytes, before.bytes - report.removedBytes);
}

TEST(ResultCachePrune, LookupRefreshesAnEntrysAgeAgainstEviction)
{
    TempDir dir("sac_cache_prune_touch");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig());
    runWithCache(plan, cache);
    stampAges(cache, plan); // job 0 is the oldest on disk...

    // ...but a hit rejuvenates it, so the LRU pass evicts the others.
    ASSERT_TRUE(cache.lookup(plan[0]).has_value());
    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 1});
    EXPECT_TRUE(report.ran);
    EXPECT_TRUE(std::filesystem::exists(cache.entryPath(plan[0])));
    EXPECT_EQ(cache.verify().entries, 1u);
}

TEST(ResultCachePrune, SkipsWhenAnotherProcessHoldsThePruneLock)
{
    TempDir dir("sac_cache_prune_locked");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    runWithCache(plan, cache);

    // Simulate a concurrent pruner: hold the advisory lock on our
    // own file description (flock contends across descriptions, so
    // this conflicts with the cache's lock just as a second process
    // would).
    const int fd =
        ::open(cache.pruneLockPath().c_str(), O_CREAT | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);

    const ResultCache::Budget budget{.maxEntries = 1};
    EXPECT_FALSE(cache.prune(budget).ran); // skipped, not waited for
    EXPECT_TRUE(std::filesystem::exists(cache.entryPath(plan[0])));

    ::flock(fd, LOCK_UN);
    ::close(fd);
    EXPECT_TRUE(cache.prune(budget).ran);
}

TEST(ResultCachePrune, SweepsAbandonedTemporariesButNotFreshOnes)
{
    TempDir dir("sac_cache_prune_tmps");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    runWithCache(plan, cache);

    // An hour-old temporary is a crashed writer's litter; a fresh one
    // may be a store in flight and must be left alone.
    namespace fs = std::filesystem;
    const std::string stale = dir.path + "/dead.json.tmp.1";
    const std::string fresh = dir.path + "/live.json.tmp.2";
    std::ofstream(stale) << "{torn";
    std::ofstream(fresh) << "{torn";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));

    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 100});
    EXPECT_TRUE(report.ran);
    EXPECT_EQ(report.staleTmps, 1u);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
    // Temporaries are invisible to the integrity scan either way.
    EXPECT_EQ(cache.verify().entries, 1u);
    EXPECT_EQ(cache.verify().rejected, 0u);
}

TEST(ResultCachePrune, ASigkilledPrunerNeverWedgesTheCache)
{
    TempDir dir("sac_cache_prune_sigkill");
    ResultCache cache(dir.path);
    const ExperimentPlan plan = fullPlan();
    runWithCache(plan, cache);

    // A child process takes the prune lock and is SIGKILLed while
    // "mid-prune". flock() is released by the kernel on process
    // death, so the parent's next pass must acquire it — no stale
    // lockfile ever wedges pruning.
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        const int fd = ::open(cache.pruneLockPath().c_str(),
                              O_CREAT | O_RDWR, 0644);
        if (fd < 0 || ::flock(fd, LOCK_EX) != 0)
            ::_exit(1);
        char byte = 'k';
        if (::write(ready[1], &byte, 1) != 1)
            ::_exit(1);
        for (;;)
            ::pause();
    }
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    ::close(ready[1]);

    const ResultCache::Budget budget{.maxEntries = 2};
    EXPECT_FALSE(cache.prune(budget).ran); // the "pruner" holds it

    ASSERT_EQ(::kill(child, SIGKILL), 0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);

    const auto report = cache.prune(budget);
    EXPECT_TRUE(report.ran);
    const auto after = cache.verify();
    EXPECT_LE(after.entries, 2u);
    EXPECT_EQ(after.rejected, 0u);
}

TEST(ResultCachePrune, ToleratesConcurrentStoresWithoutTornSurvivors)
{
    TempDir dir("sac_cache_prune_racing");
    ResultCache cache(dir.path);
    const ExperimentPlan plan = fullPlan();
    const auto records = ExperimentEngine(2).run(plan);

    // Four writers hammer stores of all ten entries while the main
    // thread prunes to a 4-entry budget over and over. Every survivor
    // must be a complete entry; the final pass lands under budget.
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&] {
            while (!stop.load()) {
                for (std::size_t i = 0; i < plan.size(); ++i)
                    cache.store(plan[i], records[i]);
            }
        });
    }
    const ResultCache::Budget budget{.maxEntries = 4};
    for (int pass = 0; pass < 25; ++pass)
        EXPECT_TRUE(cache.prune(budget).ran);
    stop.store(true);
    for (auto &w : writers)
        w.join();

    EXPECT_EQ(cache.verify().rejected, 0u);
    EXPECT_TRUE(cache.prune(budget).ran);
    EXPECT_LE(cache.verify().entries, 4u);
    EXPECT_EQ(cache.verify().rejected, 0u);
}

} // namespace
} // namespace sac
