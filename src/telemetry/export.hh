/**
 * @file
 * Timeline/event serialization.
 *
 * Three formats, three audiences:
 *
 *  - toJson/timelineFromJson: the lossless machine format (integers
 *    verbatim, doubles at max_digits10); also what sim/result_io
 *    embeds into sac.results documents. Round trips bit-for-bit —
 *    the cross-worker determinism tests compare these strings.
 *  - writeJsonl: one JSON object per line, one line per event; the
 *    grep/jq-friendly stream for ad-hoc analysis.
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

/** Serializes one event as a lossless JSON object. */
std::string toJson(const TraceEvent &event);

/** Parses the output of toJson(Timeline), already as a value tree. */
Timeline timelineFromValue(const json::Value &v);

/** Parses the output of toJson(Timeline). Throws FatalError. */
Timeline timelineFromJson(const std::string &text);

/**
 * Writes the events as JSONL: one object per line. When @p run is
 * non-empty every line carries a "run" field, so streams from several
 * runs can be concatenated and still attributed.
 */
void writeJsonl(std::ostream &os, const Timeline &timeline,
                const std::string &run = "");

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
