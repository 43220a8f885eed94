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
 *  - writeChromeTrace/appendChromeEvents: Chrome trace-event JSON
 *    loadable in Perfetto (https://ui.perfetto.dev) — kernels become
 *    B/E spans, flushes become complete ("X") slices, decisions and
 *    way moves become instants, and epoch samples become counter
 *    ("C") tracks for LLC hit rate, link utilization and DRAM
 *    traffic. Cycles are mapped 1 cycle = 1 ns (the baseline clock).
 */

#ifndef SAC_TELEMETRY_EXPORT_HH
#define SAC_TELEMETRY_EXPORT_HH

#include <iosfwd>
#include <string>

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

/**
 * Appends one run's Chrome trace events to @p array (a '[' Builder).
 * @p label names the Perfetto process; @p pid separates runs sharing
 * one file.
 */
void appendChromeEvents(json::Builder &array, const Timeline &timeline,
                        const std::string &label, int pid);

/** Writes a complete single-run Chrome trace document. */
void writeChromeTrace(std::ostream &os, const Timeline &timeline,
                      const std::string &label = "sac");

} // namespace sac::telemetry

#endif // SAC_TELEMETRY_EXPORT_HH
