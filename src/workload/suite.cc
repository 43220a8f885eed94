#include "workload/suite.hh"

#include "common/log.hh"
#include "common/suggest.hh"

namespace sac {

namespace {

/**
 * Builds one profile from Table 4 numbers + behaviour knobs.
 *
 * Knob design rules (full-scale MB; everything scales with the
 * configuration):
 *
 *  - SM-side preferred: most accesses target shared data, and the
 *    hot shared set is small enough that each chip can replicate it
 *    (hot-true + hot-false/chips + hot-priv/chips <~ 4 MB per-chip
 *    LLC). Under a memory-side LLC those accesses cross the
 *    inter-chip links (~75% remote after first touch) and saturate
 *    them; SM-side converts them into local LLC hits.
 *
 *  - Memory-side preferred: private data dominates the stream with a
 *    hot set sized near the per-chip LLC, while the truly shared hot
 *    set is large (8-14 MB). Memory-side keeps one copy of the shared
 *    set spread over the 16 MB aggregate LLC and leaves each chip's
 *    capacity to its private hot set; SM-side replication thrashes
 *    both (Fig. 11's "replicated working set exceeds capacity").
 */
WorkloadProfile
bench(const char *name, bool sm_pref, std::uint64_t ctas, double fp,
      double ts, double fs, KernelPhase phase, int kernels = 2)
{
    WorkloadProfile p;
    p.name = name;
    p.smSidePreferred = sm_pref;
    p.ctas = ctas;
    p.footprintMB = fp;
    p.trueSharedMB = ts;
    p.falseSharedMB = fs;
    p.phases = {phase};
    p.numKernels = kernels;
    return p;
}

/** Shorthand phase constructor. */
KernelPhase
phase(double true_frac, double false_frac, double write_frac,
      double true_hot_mb, double true_hot_frac, double false_hot_mb,
      double false_hot_frac, double priv_hot_mb, double priv_hot_frac,
      unsigned gap, std::uint64_t apw)
{
    KernelPhase k;
    k.trueFrac = true_frac;
    k.falseFrac = false_frac;
    k.writeFrac = write_frac;
    k.trueHotMB = true_hot_mb;
    k.trueHotFrac = true_hot_frac;
    k.falseHotMB = false_hot_mb;
    k.falseHotFrac = false_hot_frac;
    k.privHotMB = priv_hot_mb;
    k.privHotFrac = priv_hot_frac;
    k.computeGap = gap;
    k.accessesPerWarp = apw;
    return k;
}

std::vector<WorkloadProfile>
buildSuite()
{
    std::vector<WorkloadProfile> s;

    // ---- SM-side preferred (Table 4, top half) -----------------------
    // Replicated hot demand per chip (trueHot + (falseHot+privHot)/4)
    // stays under the 4 MB per-chip LLC so SM-side caching sticks.
    // RN: DNN inference; hot truly shared weight panels replicate well.
    s.push_back(bench("RN", true, 512, 21, 11, 4,
        phase(0.55, 0.28, 0.03, 2.0, 0.98, 3.0, 0.97, 2.0, 0.95, 10, 896), 1));
    // AN: AlexNet; as RN with a slightly larger private share.
    s.push_back(bench("AN", true, 1024, 20, 9, 3,
        phase(0.50, 0.30, 0.03, 1.8, 0.98, 2.4, 0.97, 2.4, 0.95, 10, 896), 1));
    // SN: SqueezeNet; false sharing dominates, tiny true-shared set.
    s.push_back(bench("SN", true, 512, 18, 2, 13,
        phase(0.18, 0.60, 0.03, 1.0, 0.98, 6.0, 0.97, 2.0, 0.95, 11, 896), 1));
    // CFD: unstructured-grid solver; big falsely shared halo regions.
    s.push_back(bench("CFD", true, 4031, 97, 9, 33,
        phase(0.28, 0.52, 0.06, 1.2, 0.97, 4.0, 0.96, 3.0, 0.94, 13, 896), 1));
    // BFS: alternates a memory-side-preferred expansion kernel (K1,
    // large flat frontier whose replication thrashes) and an
    // SM-side-preferred contraction kernel (K2, hot shared frontier +
    // false-shared visited flags).
    {
        WorkloadProfile p = bench("BFS", true, 1954, 37, 10, 14,
            phase(0.50, 0.10, 0.20, 9.0, 0.90, 3.0, 0.85, 12.0, 0.88, 16,
                  144),
            6);
        p.phases.push_back(
            phase(0.32, 0.48, 0.06, 1.2, 0.97, 5.0, 0.96, 3.0, 0.94, 12,
                  448));
        s.push_back(p);
    }
    // 3DC: 3-D convolution; atypical — flat locality, mild preference.
    s.push_back(bench("3DC", true, 2048, 98, 17, 38,
        phase(0.20, 0.32, 0.06, 1.5, 0.94, 4.0, 0.93, 3.0, 0.92, 16, 512), 1));
    // BS: Black-Scholes; no true sharing at all, pure false sharing.
    s.push_back(bench("BS", true, 480, 76, 0, 56,
        phase(0.0, 0.64, 0.06, 1.0, 0.9, 8.0, 0.96, 4.0, 0.94, 14, 640), 1));
    // BT: B+tree search; hot shared index levels.
    s.push_back(bench("BT", true, 48096, 31, 4, 19,
        phase(0.38, 0.38, 0.03, 1.6, 0.97, 5.0, 0.96, 3.0, 0.94, 12, 896), 1));

    // ---- Memory-side preferred (Table 4, bottom half) ----------------
    // Memory-side demand per chip ((trueHot+falseHot+privHot)/4) fits;
    // SM-side demand (trueHot replicated + (falseHot+privHot)/4) is
    // 2-3x the per-chip LLC and thrashes (Fig. 11).
    // SRAD: diffusion over huge private tiles; big flat shared borders.
    s.push_back(bench("SRAD", false, 65536, 753, 30, 3,
        phase(0.30, 0.04, 0.20, 6.0, 0.90, 2.0, 0.80, 9.0, 0.90, 18, 448), 1));
    // GEMM: tiled matrix multiply; shared input panels are large.
    s.push_back(bench("GEMM", false, 2048, 174, 14, 21,
        phase(0.32, 0.08, 0.10, 7.0, 0.90, 3.0, 0.80, 8.0, 0.90, 16, 512), 1));
    // LUD: LU decomposition; large flat shared pivot rows/columns.
    s.push_back(bench("LUD", false, 131068, 317, 38, 51,
        phase(0.32, 0.10, 0.15, 7.0, 0.90, 4.0, 0.75, 8.0, 0.90, 18, 448), 1));
    // STEN: 3-D stencil; shared halos exceed capacity when replicated.
    s.push_back(bench("STEN", false, 1024, 205, 18, 17,
        phase(0.30, 0.08, 0.20, 6.5, 0.90, 3.0, 0.80, 9.0, 0.90, 20, 448), 1));
    // 3MM: three chained GEMMs.
    s.push_back(bench("3MM", false, 4096, 109, 12, 7,
        phase(0.32, 0.06, 0.10, 6.0, 0.90, 2.0, 0.80, 9.0, 0.90, 16, 288),
        3));
    // BP: back-propagation; atypical — almost everything is private.
    s.push_back(bench("BP", false, 65536, 76, 4, 0,
        phase(0.12, 0.0, 0.10, 1.5, 0.85, 1.0, 0.8, 6.0, 0.90, 22, 512), 1));
    // DWT: wavelet transform; atypical — small shared set, streaming.
    s.push_back(bench("DWT", false, 91373, 207, 3, 10,
        phase(0.08, 0.10, 0.10, 2.0, 0.80, 3.0, 0.70, 8.0, 0.88, 22,
              448), 1));
    // NN: nearest-neighbour over a huge flat shared database.
    s.push_back(bench("NN", false, 60000, 1388, 154, 0,
        phase(0.42, 0.0, 0.02, 8.0, 0.90, 1.0, 0.8, 8.0, 0.90, 14, 512), 1));

    return s;
}

} // namespace

const std::vector<WorkloadProfile> &
benchmarkSuite()
{
    static const std::vector<WorkloadProfile> suite = buildSuite();
    return suite;
}

std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (const auto &p : benchmarkSuite())
        names.push_back(p.name);
    return names;
}

const WorkloadProfile &
findBenchmark(const std::string &name)
{
    for (const auto &p : benchmarkSuite()) {
        if (p.name == name)
            return p;
    }
    // Recoverable: a typo in a CLI flag, sweep request or scenario
    // file should surface as a located ValidationError with the
    // nearest valid name, not abort the process.
    invalid(name, "unknown benchmark",
            didYouMean(name, benchmarkNames()));
}

} // namespace sac
