/**
 * @file
 * Timeline/event serialization.
 *
 * Two formats, two audiences:
 *
 *  - toJson/timelineFromValue: the lossless machine format (integers
 *    verbatim, doubles at max_digits10); also what sim/result_io
 *    embeds into sac.results documents. Round trips bit-for-bit —
 *    the cross-worker determinism tests compare these strings.
 *  - writeChromeTrace: Chrome trace-event JSON with one process per
 *    run, loadable in Perfetto (https://ui.perfetto.dev) — kernels become
 *    B/E spans, flushes become complete ("X") slices, decisions and
 *    way moves become instants, and epoch samples become counter
 *    ("C") tracks for LLC hit rate, link utilization and DRAM
 *    traffic. Cycles are mapped 1 cycle = 1 ns (the baseline clock).
 */

#ifndef SAC_TELEMETRY_EXPORT_HH
#define SAC_TELEMETRY_EXPORT_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "telemetry/timeline.hh"

namespace sac::telemetry {

/** Serializes a timeline as a lossless JSON object. */
std::string toJson(const Timeline &timeline);

/** Parses the output of toJson(Timeline), already as a value tree. */
Timeline timelineFromValue(const json::Value &v);

/** One run in a Chrome trace: its label and its timeline. */
using TraceRun = std::pair<std::string, const Timeline *>;

/**
 * Writes one Chrome trace document holding every run in @p runs. Each
 * run becomes a Perfetto process named by its label, with its
 * position in @p runs as the pid.
 */
void writeChromeTrace(std::ostream &os, const std::vector<TraceRun> &runs);

} // namespace sac::telemetry

#endif // SAC_TELEMETRY_EXPORT_HH
