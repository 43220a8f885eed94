/**
 * @file
 * Simulator throughput: simulated cycles per wall-clock second with
 * the event-driven scheduler core versus the per-cycle reference
 * loop.
 *
 * Every shape is *gated* (CI enforces a floor on its speedup). The
 * two sparse shapes carry real speedup floors:
 *
 *  - idle-heavy: few warps with long compute gaps, so most cycles
 *    carry no work at all and the scheduler jumps them wholesale;
 *  - issue-bound: a full warp complement whose issue events pace the
 *    run. Warp wake-ups land almost every cycle somewhere in the
 *    machine, so whole-cycle skipping barely applies — the win comes
 *    from ticking only the one or two components actually due instead
 *    of sweeping all of them, which is exactly what the event queue
 *    buys over the v1 skip-idle-cycles layer.
 *
 * The third family is the dense-traffic ladder (dense-g512 /
 * dense-g64 / dense-g0): back-to-back access streams stepping into
 * the DRAM-bandwidth-bound regime, which the scheduler runs in its
 * dense (flat-sweep) regime. There the wall time of both loops is
 * dominated by the per-access simulation work they share, so the
 * achievable speedup is pinned near 1x by construction (the
 * decomposition is in docs/PERFORMANCE.md). The ladder is gated at a
 * floor *below* that parity ceiling: the gate cannot prove a win the
 * physics disallows, but it does catch the failure modes that matter
 * — regime flapping, a heap pathology, per-cycle work creeping into
 * the sweep — all of which push the ratio well under the floor.
 *
 * Results are asserted bit-identical between the two loops before any
 * number is reported. Writes BENCH_throughput.json (path overridable
 * via argv[1] or $SAC_BENCH_OUT) for CI perf tracking; gated rows
 * carry their floor in the JSON so the CI check stays generic.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/system.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace {

using namespace sac;

/** One workload shape to measure. */
struct Shape
{
    std::string name;
    GpuConfig cfg;
    WorkloadProfile profile;
    /** CI-enforced minimum speedup; 0 = tracked only, never gated. */
    double floor = 0.0;
};

/** Sparse events: two warps per cluster, long gaps between accesses. */
Shape
idleHeavy()
{
    Shape s;
    s.name = "idle-heavy";
    s.cfg = bench::defaultConfig();
    s.cfg.warpsPerCluster = 2;
    s.profile = findBenchmark("RN");
    s.profile.numKernels = 1;
    s.profile.phases[0].computeGap = 2000;
    s.profile.phases[0].accessesPerWarp = 256;
    s.floor = 2.3;
    return s;
}

/**
 * Issue-event-paced: a full warp complement with compute gaps long
 * enough that the machine is never saturated, yet short enough that
 * some warp or in-flight response is due nearly every cycle. The
 * reference loop must sweep every component every cycle; the
 * event-driven core ticks only the due ones.
 */
Shape
issueBound()
{
    Shape s;
    s.name = "issue-bound";
    s.cfg = bench::defaultConfig();
    s.cfg.warpsPerCluster = 48;
    s.profile = findBenchmark("RN");
    s.profile.numKernels = 1;
    s.profile.phases[0].computeGap = 24000;
    s.profile.phases[0].accessesPerWarp = 64;
    s.floor = 5.0;
    return s;
}

/**
 * One rung of the dense-traffic ladder. Gated at 0.75: measured
 * ratios sit at ~0.85-1.25 (parity, as the shared-work decomposition
 * predicts), and single-core CI runners swing individual runs by
 * +/-20%. The floor is a collapse tripwire, not a speedup claim.
 */
Shape
denseRung(Cycle compute_gap)
{
    Shape s;
    s.name = "dense-g" + std::to_string(compute_gap);
    s.cfg = bench::defaultConfig();
    s.profile = findBenchmark("RN");
    s.profile.numKernels = 1;
    s.profile.phases[0].computeGap = compute_gap;
    s.profile.phases[0].accessesPerWarp = 192;
    s.floor = 0.75;
    return s;
}

/** One timed run of @p shape; fills the result for identity checks. */
struct Measurement
{
    double wallSec = 0.0;
    RunResult result;
    System::FastForwardStats ff;
};

Measurement
measure(const Shape &shape, bool event_driven)
{
    GpuConfig cfg = shape.cfg;
    cfg.validate();
    const WorkloadProfile scaled = shape.profile.scaledData(dataScale(cfg));
    SharingTraceGen gen(scaled, cfg, 1);
    System system(cfg, OrgKind::MemorySide, gen);
    system.setFastForward(event_driven);

    Measurement m;
    const auto t0 = std::chrono::steady_clock::now();
    m.result = system.run(kernelsFor(scaled));
    m.wallSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    m.ff = system.fastForwardStats();
    return m;
}

/** Best-of-N wall time; the result is identical across repetitions. */
Measurement
best(const Shape &shape, bool event_driven, int reps)
{
    Measurement out = measure(shape, event_driven);
    for (int r = 1; r < reps; ++r) {
        Measurement m = measure(shape, event_driven);
        if (m.wallSec < out.wallSec)
            out = m;
    }
    return out;
}

double
cyclesPerSec(const Measurement &m)
{
    return m.wallSec > 0.0 ? static_cast<double>(m.result.cycles) / m.wallSec
                           : 0.0;
}

struct Row
{
    Shape shape;
    Measurement ed;
    Measurement ref;
};

std::string
rowJson(const Row &row)
{
    const double ed_rate = cyclesPerSec(row.ed);
    const double ref_rate = cyclesPerSec(row.ref);
    json::Builder hist('[');
    for (const std::uint64_t bucket : row.ed.ff.dueHist)
        hist.item(json::number(bucket));
    json::Builder ed(json::Builder('{')
                         .field("wallSec", json::number(row.ed.wallSec))
                         .field("cyclesPerSec", json::number(ed_rate))
                         .field("skips", json::number(row.ed.ff.skips))
                         .field("skippedCycles",
                                json::number(row.ed.ff.skippedCycles))
                         .field("schedCycles",
                                json::number(row.ed.ff.schedCycles))
                         .field("heapPops", json::number(row.ed.ff.heapPops))
                         .field("denseCycles",
                                json::number(row.ed.ff.denseCycles))
                         .field("denseSpans",
                                json::number(row.ed.ff.denseSpans))
                         .field("dueFractionHist", hist.close(']')));
    json::Builder out('{');
    out.field("name", json::escape(row.shape.name))
        .field("role", json::escape(row.shape.floor > 0.0 ? "gated"
                                                          : "tracked"));
    if (row.shape.floor > 0.0)
        out.field("minSpeedup", json::number(row.shape.floor));
    return out.field("cycles", json::number(row.ed.result.cycles))
        .field("accesses", json::number(row.ed.result.accesses))
        .field("eventDriven", ed.close('}'))
        .field("reference",
               json::Builder('{')
                   .field("wallSec", json::number(row.ref.wallSec))
                   .field("cyclesPerSec", json::number(ref_rate))
                   .close('}'))
        .field("speedup",
               json::number(ref_rate > 0.0 ? ed_rate / ref_rate : 0.0))
        .close('}');
}

void
writeJson(const std::vector<Row> &rows, const std::string &path)
{
    json::Builder arr('[');
    for (const auto &row : rows)
        arr.item(rowJson(row));
    const std::string doc = json::Builder('{')
                                .field("schema",
                                       json::escape("sac.bench.throughput.v2"))
                                .field("workloads", arr.close(']'))
                                .close('}');
    std::ofstream os(path);
    SAC_ASSERT(os.good(), "cannot write ", path);
    os << doc << "\n";
}

/** True when $SAC_BENCH_SHAPES (comma list) is unset or names @p name. */
bool
shapeSelected(const std::string &name)
{
    const char *filter = std::getenv("SAC_BENCH_SHAPES");
    if (!filter || !*filter)
        return true;
    const std::string list = filter;
    std::size_t from = 0;
    while (from <= list.size()) {
        const std::size_t comma = list.find(',', from);
        const std::size_t to = comma == std::string::npos ? list.size()
                                                          : comma;
        if (list.compare(from, to - from, name) == 0)
            return true;
        if (comma == std::string::npos)
            break;
        from = comma + 1;
    }
    return false;
}

void
runThroughput(const std::string &out_path)
{
    report::banner(std::cout, "Simulator throughput: event-driven core vs "
                              "per-cycle reference");

    int reps = 3;
    if (const char *env = std::getenv("SAC_BENCH_REPS"))
        reps = std::max(1, std::atoi(env));
    std::vector<Row> rows;
    for (const Shape &shape : {idleHeavy(), issueBound(), denseRung(512),
                               denseRung(64), denseRung(0)}) {
        if (!shapeSelected(shape.name))
            continue;
        std::cerr << "  measuring " << shape.name << " ...\n";
        Row row{shape, best(shape, true, reps), best(shape, false, reps)};
        // The whole point of the core: same results, less wall time.
        SAC_ASSERT(row.ed.result.cycles == row.ref.result.cycles,
                   "cycle count diverged under the event-driven core");
        SAC_ASSERT(row.ed.result.accesses == row.ref.result.accesses,
                   "access count diverged under the event-driven core");
        SAC_ASSERT(row.ed.result.avgLoadLatency ==
                       row.ref.result.avgLoadLatency,
                   "load latency diverged under the event-driven core");
        rows.push_back(row);
    }

    report::Table t({"workload", "role", "sim cycles", "ref Mcyc/s",
                     "ed Mcyc/s", "speedup", "skipped %", "dense %"});
    for (const auto &row : rows) {
        const double skipped =
            row.ed.result.cycles
                ? 100.0 * static_cast<double>(row.ed.ff.skippedCycles) /
                      static_cast<double>(row.ed.result.cycles)
                : 0.0;
        const double dense =
            row.ed.ff.schedCycles
                ? 100.0 * static_cast<double>(row.ed.ff.denseCycles) /
                      static_cast<double>(row.ed.ff.schedCycles)
                : 0.0;
        t.addRow({row.shape.name,
                  row.shape.floor > 0.0 ? "gated" : "tracked",
                  std::to_string(row.ed.result.cycles),
                  report::num(cyclesPerSec(row.ref) / 1e6, 2),
                  report::num(cyclesPerSec(row.ed) / 1e6, 2),
                  report::num(cyclesPerSec(row.ed) /
                                  cyclesPerSec(row.ref),
                              2),
                  report::num(skipped, 1),
                  report::num(dense, 1)});
    }
    t.print(std::cout);

    writeJson(rows, out_path);
    std::cout << "\nwrote " << out_path << "\n";
}

/** Micro: one advance() on an idle system (probe + skip machinery). */
void
BM_AdvanceIdle(benchmark::State &state)
{
    const Shape shape = idleHeavy();
    GpuConfig cfg = shape.cfg;
    cfg.validate();
    const WorkloadProfile scaled = shape.profile.scaledData(dataScale(cfg));
    SharingTraceGen gen(scaled, cfg, 1);
    System sys(cfg, OrgKind::MemorySide, gen);
    for (ChipId c = 0; c < cfg.numChips; ++c)
        sys.chip(c).beginKernel(0, cfg.clustersPerChip, 100000, 0);
    for (int i = 0; i < 2000; ++i)
        sys.tick(); // warm up
    for (auto _ : state)
        sys.advance();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdvanceIdle);

/**
 * Micro: one reference tick() on the same idle system. The gap to
 * BM_AdvanceIdle is the whole-machine sweep cost the event-driven
 * core avoids — the ceiling on what scheduling can recover.
 */
void
BM_TickIdle(benchmark::State &state)
{
    const Shape shape = idleHeavy();
    GpuConfig cfg = shape.cfg;
    cfg.validate();
    const WorkloadProfile scaled = shape.profile.scaledData(dataScale(cfg));
    SharingTraceGen gen(scaled, cfg, 1);
    System sys(cfg, OrgKind::MemorySide, gen);
    for (ChipId c = 0; c < cfg.numChips; ++c)
        sys.chip(c).beginKernel(0, cfg.clustersPerChip, 100000, 0);
    for (int i = 0; i < 2000; ++i)
        sys.tick(); // warm up
    for (auto _ : state)
        sys.tick();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TickIdle);

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_throughput.json";
    if (const char *env = std::getenv("SAC_BENCH_OUT"))
        out = env;
    if (argc > 1 && argv[1][0] != '-')
        out = argv[1];
    runThroughput(out);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
