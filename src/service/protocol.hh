/**
 * @file
 * The sacsimd wire protocol: newline-delimited JSON over a local
 * stream (unix socket or stdio). One request line in, a stream of
 * event lines out.
 *
 * Request (sac.sweep.v1) — one line:
 *
 *   { "schema": "sac.sweep.v1",
 *     "id": "r1",                      // optional, echoed verbatim
 *     "provenance": false,             // optional: per-record source
 *     "deadline_ms": 60000,            // optional wall-clock budget
 *     "plan": [ { "benchmark": "CFD",  // required, Table 4 name
 *                 "org": "mem,sac",    // optional, "all" or a comma
 *                                      // list of mem|sm|static|
 *                                      // dynamic|sac; default all
 *                 "seed": 1,           // optional, default 1
 *                 "scale": 4,          // optional topology divisor
 *                 "inputScale": 1.0,   // optional (Fig. 13 axis)
 *                 "coherence": "sw",   // optional, sw|hw
 *                 "sectors": 1,        // optional, 1|2|4
 *                 "interChipBw": 0.0,  // optional, 0 = default
 *                 "apw": 0,            // optional accesses/warp
 *                 "label": "..." } ] } // optional, one-org specs only
 *
 * Each plan element is a JobSpec (sim/plan.hh) and is read by the
 * same addJobs() that reads sacsim's flags, so the defaults, bounds
 * and org grammar are sacsim's: "org": "all" expands to the five
 * organizations in presentation order, exactly like sacsim --org
 * all, and "mem,sac" to two jobs in that order.
 *
 * A job spec may carry "scenario" INSTEAD of "benchmark": an array of
 * stream objects in the scenario-file shape (workload/scenario.hh) —
 * {"benchmark","launchCycle","clusterShare","kernels","apw",
 * "inputScale"} per stream, at most 8 streams, every numeric
 * range-checked. Such a job runs the streams co-resident and its
 * record carries the per-stream breakdown (sac.results.v4); "org",
 * "seed", "scale", "coherence", "sectors", "interChipBw" and "label"
 * apply as usual, while top-level "inputScale"/"apw" are rejected
 * (each stream names its own).
 *
 * Response (sac.sweep-result.v1) — one line per event, in plan
 * order, flushed as delivered:
 *
 *   {"schema":"sac.sweep-result.v1","id":...,"event":"record",
 *    "record":{...sac.results.v3 record, canonical...}}
 *   {"schema":"sac.sweep-result.v1","id":...,"event":"done",
 *    "jobs":N,"simulated":s,"cacheHits":h,"cacheMisses":m}
 *   {"schema":"sac.sweep-result.v1","id":...,"event":"error",
 *    "message":"...","retryable":false}
 *
 * "deadline_ms" is this plan's wall-clock budget, measured from the
 * moment the daemon accepts the request (queue wait included). When
 * it expires, jobs that have not finished are emitted as timed_out
 * records and the stream still ends with a done event — the records
 * already emitted are byte-identical to the same prefix of an
 * undeadlined run. The daemon may tighten the effective deadline
 * further (--max-plan-wall-ms).
 *
 * "retryable" on an error event distinguishes transient refusals
 * (admission queue full, daemon draining — resubmit the identical
 * request later) from permanent ones (malformed request — resubmitting
 * the same bytes can never succeed).
 *
 * Record payloads are canonical (no wall-clock fields), so two
 * submissions of the same plan produce byte-identical record lines
 * whether served from cache or simulated. Per-record provenance is
 * opt-in ("provenance": true adds "source":"simulated|cache" to each
 * record event) precisely so the default stream stays comparable;
 * the aggregate counts always ride the done event.
 */

#ifndef SAC_SERVICE_PROTOCOL_HH
#define SAC_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"

namespace sac::service {

extern const char *const requestSchema;  //!< "sac.sweep.v1"
extern const char *const responseSchema; //!< "sac.sweep-result.v1"

/** A parsed request: the plan to run plus response options. */
struct SweepRequest
{
    std::string id;
    ExperimentPlan plan;
    /** Add "source" to each record event. */
    bool provenance = false;
    /** Wall-clock budget in milliseconds; 0 = none requested. */
    std::uint64_t deadlineMs = 0;
};

/**
 * Parses one request line. Throws ValidationError (with the offending
 * field in the context) on anything malformed — unknown schema,
 * missing benchmark, bad organization name, or an out-of-range
 * numeric (addJobs() bounds every job-spec field, because the JSON
 * layer deliberately parses saturating: 1e999 arrives as inf and a
 * 30-digit integer as 2^64-1).
 */
SweepRequest parseRequest(const std::string &line);

/** One "record" event line (no trailing newline). */
std::string recordEvent(const SweepRequest &request,
                        const EngineProgress &event);

/** Per-run provenance totals for the done event. */
struct SweepCounts
{
    std::size_t jobs = 0;
    std::size_t simulated = 0;
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
};

/** The terminal "done" event line (no trailing newline). */
std::string doneEvent(const SweepRequest &request,
                      const SweepCounts &counts);

/**
 * An "error" event line (no trailing newline). @p retryable marks
 * transient refusals (overload, draining) the client should resubmit
 * verbatim after a backoff; false means the request itself is bad.
 */
std::string errorEvent(const std::string &id, const std::string &message,
                       bool retryable = false);

} // namespace sac::service

#endif // SAC_SERVICE_PROTOCOL_HH
