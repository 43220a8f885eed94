/**
 * @file
 * The paper's 16-benchmark suite (Table 4).
 *
 * Quantitative columns (CTAs, footprint, true-/false-shared MB) are
 * taken verbatim from Table 4. Behavioural knobs encode each group's
 * characterization from Sections 1, 2 and 5.3:
 *
 *  - SM-side preferred (top half): most accesses go to shared data;
 *    the truly shared *hot* set is small (1-2 MB) and takes nearly
 *    all truly shared accesses, so SM-side replication fits, and the
 *    falsely shared set is large — caching it locally is pure win.
 *  - Memory-side preferred (bottom half): private data dominates the
 *    access stream, while the truly shared hot set is large (mostly
 *    6-8 MB) — replicating it under an SM-side LLC exceeds capacity
 *    and thrashes (Fig. 11).
 *  - Atypical benchmarks (3DC, BS, BP, DWT) sit near the boundary.
 */

#ifndef SAC_WORKLOAD_SUITE_HH
#define SAC_WORKLOAD_SUITE_HH

#include <string>
#include <vector>

#include "workload/profile.hh"

namespace sac {

/** All 16 benchmarks in Table 4 order (SP first, then MP). */
const std::vector<WorkloadProfile> &benchmarkSuite();

/** All benchmark names, in Table 4 order. */
std::vector<std::string> benchmarkNames();

/**
 * Lookup by name ("RN", "BFS", ...). Throws ValidationError with a
 * did-you-mean suggestion when the name is unknown — recoverable, so
 * a sweep engine can reject the one bad job and carry on.
 */
const WorkloadProfile &findBenchmark(const std::string &name);

} // namespace sac

#endif // SAC_WORKLOAD_SUITE_HH
