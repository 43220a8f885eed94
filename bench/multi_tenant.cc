/**
 * @file
 * Multi-tenant scenario study: does co-residency change SAC's mind?
 *
 * EXPERIMENTS.md's falsifiable claim: an EAB verdict measured in
 * isolation is not invariant under co-residency. A symmetric split
 * preserves each stream's solo verdict, but squeezing a stream to a
 * small cluster share collapses its inter-SM sharing degree and flips
 * the verdict — which is the reason per-tenant profiling
 * (sac/tenant.hh) exists at all.
 *
 * For each benchmark pair the table reports every stream's verdict
 * run alone (the whole machine to itself) next to its verdict as a
 * tenant (partitioned clusters, shared LLC), flagging flips.
 */

#include <cstdio>

#include "bench/common.hh"
#include "workload/scenario.hh"

namespace {

using namespace sac;

struct Pairing
{
    const char *first;
    const char *second;
    double firstShare;
    double secondShare;
};

/**
 * SP x MP pairings. The symmetric splits preserve each stream's solo
 * verdict; the squeezed CFD (a ~1/8 cluster share collapses its
 * inter-SM sharing degree) is the one that flips SM-side ->
 * memory-side under co-residency.
 */
const std::vector<Pairing> pairings = {{"RN", "SRAD", 1.0, 1.0},
                                       {"CFD", "GEMM", 1.0, 1.0},
                                       {"CFD", "SRAD", 0.15, 1.0}};

std::string
verdictList(const std::vector<SacDecision> &decisions)
{
    if (decisions.empty())
        return "-";
    std::string out;
    for (const auto &d : decisions) {
        if (!out.empty())
            out += ",";
        out += toString(d.chosen);
    }
    return out;
}

void
isolationVsCoResidency()
{
    report::banner(std::cout,
                   "Multi-tenant: per-stream EAB verdicts, isolation "
                   "vs co-residency");

    // One plan: per pair, both solo runs then the 2-stream scenario
    // (equal cluster shares), all under SAC control.
    ExperimentPlan plan;
    for (const auto &p : pairings) {
        plan.add(findBenchmark(p.first), bench::defaultConfig(),
                 OrgKind::Sac, 1, std::string(p.first) + "/solo");
        plan.add(findBenchmark(p.second), bench::defaultConfig(),
                 OrgKind::Sac, 1, std::string(p.second) + "/solo");
        ExperimentJob job;
        job.scenario.streams.push_back(
            StreamSpec{findBenchmark(p.first), 0, p.firstShare, 0});
        job.scenario.streams.push_back(
            StreamSpec{findBenchmark(p.second), 0, p.secondShare, 0});
        job.config = bench::defaultConfig();
        job.org = OrgKind::Sac;
        job.seed = 1;
        plan.add(std::move(job));
    }
    const auto records = bench::runPlan(plan);

    report::Table t({"pair", "stream", "share", "solo verdict",
                     "co-resident verdict", "flip"});
    for (std::size_t i = 0; i < pairings.size(); ++i) {
        const RunRecord &solo_a = records[i * 3];
        const RunRecord &solo_b = records[i * 3 + 1];
        const RunRecord &co = records[i * 3 + 2];
        const std::string pair = co.benchmark;
        for (int s = 0; s < 2; ++s) {
            const RunRecord &solo = s == 0 ? solo_a : solo_b;
            const double share =
                s == 0 ? pairings[i].firstShare : pairings[i].secondShare;
            const auto &stream =
                co.result.streams[static_cast<std::size_t>(s)];
            const std::string alone =
                verdictList(solo.result.sacDecisions);
            const std::string together = verdictList(stream.sacDecisions);
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%.2f", share);
            t.addRow({s == 0 ? pair : "",
                      std::to_string(s) + ":" + stream.name, buf, alone,
                      together, alone == together ? "" : "FLIP"});
        }
    }
    t.print(std::cout);

    bench::paperCompare(
        std::cout, "co-residency effect",
        "per-kernel SAC verdicts assume a sole tenant (paper Sec. 5)",
        "per-tenant windows re-decide under cluster partitioning");
}

} // namespace

int
main()
{
    isolationVsCoResidency();
    return 0;
}
