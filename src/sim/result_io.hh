/**
 * @file
 * JSON serialization for experiment results.
 *
 * One structured format for every consumer: the benches, sacsim
 * (--json), and external tooling (CI perf tracking, plotting) all
 * read and write the same document:
 *
 *   {
 *     "schema": "sac.results.v3",
 *     "results": [ { "label": ..., "benchmark": ..., "seed": ...,
 *                    "attempts": 1,
 *                    "result": { ...RunResult..., "status": ...,
 *                                "diagnostic": ...,
 *                                "timeline": {...}? } } ]
 *   }
 *
 * Every record carries its status and diagnostic, and "result" embeds
 * the telemetry timeline when the run sampled one. The volatile
 * wall-clock fields (wallMs, queueMs, worker, source) are omitted by
 * default: a v3 document depends only on simulated state, so the same
 * plan produces byte-identical output for any worker count, across
 * interrupted-and-resumed runs, and with failed jobs. Pass
 * WriteOptions{.timing = true} to keep them. "attempts" is frozen at
 * 1: a job runs once, and the field stays only so v3 bytes do not
 * change; the reader ignores it.
 * v4 adds the per-stream breakdown of multi-tenant scenario runs: a
 * "streams" array inside "result" (one entry per co-resident kernel
 * stream, with its own cycle/cache counters and SAC verdicts). The
 * tag is backward-conservative: a document is stamped v4 only when at
 * least one record actually carries streams, so single-kernel plans
 * keep emitting v3 byte-identically. The reader accepts v3 and v4
 * only.
 *
 * Serialization is lossless: integers are written verbatim and
 * doubles with max_digits10 precision, so a write/read round trip
 * reproduces every counter bit-for-bit (the determinism tests rely
 * on this). No external JSON dependency — reading and writing go
 * through common/json.hh.
 */

#ifndef SAC_SIM_RESULT_IO_HH
#define SAC_SIM_RESULT_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/system.hh"

namespace sac::result_io {

/** Controls which volatile fields a results document carries. */
struct WriteOptions
{
    /**
     * Include the volatile fields (wallMs, queueMs, worker, source).
     * Off by default so documents are byte-identical across runs,
     * worker counts and cache hits; turn on for profiling output.
     */
    bool timing = false;
};

/** Serializes one RunResult as a JSON object. */
std::string toJson(const RunResult &result);

/** Serializes one RunRecord as a JSON object. */
std::string recordToJson(const RunRecord &record,
                         const WriteOptions &opts = {});

/** Parses a RunRecord from the output of recordToJson. */
RunRecord recordFromJson(const std::string &text);

/** Parses a RunRecord from an already-parsed JSON value. */
RunRecord recordFromValue(const json::Value &v);

/** Serializes records (plan order) as a sac.results document (v3, or
 *  v4 when any record carries per-stream results). */
std::string toJson(const std::vector<RunRecord> &records,
                   const WriteOptions &opts = {});

/** Writes the sac.results document to @p os. */
void write(std::ostream &os, const std::vector<RunRecord> &records,
           const WriteOptions &opts = {});

/** Parses a RunResult from the output of toJson(RunResult). */
RunResult runResultFromJson(const std::string &text);

/** Parses a sac.results document (v3 or v4). Throws FatalError on
 *  malformed input or any other schema. */
std::vector<RunRecord> fromJson(const std::string &text);

/** Reads a sac.results document (v3 or v4) from @p is. */
std::vector<RunRecord> read(std::istream &is);

} // namespace sac::result_io

#endif // SAC_SIM_RESULT_IO_HH
