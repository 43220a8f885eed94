/**
 * @file
 * Fundamental scalar types and identifiers used across the simulator.
 *
 * All modules use these aliases instead of raw integer types so that
 * addresses, cycle counts and topology indices are visually distinct
 * at call sites.
 */

#ifndef SAC_COMMON_TYPES_HH
#define SAC_COMMON_TYPES_HH

#include <cstdint>

namespace sac {

/** Byte address in the simulated global physical address space. */
using Addr = std::uint64_t;

/** Simulated clock cycle (1 GHz in the baseline, so 1 cycle = 1 ns). */
using Cycle = std::uint64_t;

/** Index of a GPU chip in the multi-chip system, 0-based. */
using ChipId = int;

/** Index of an SM cluster within a chip, 0-based. */
using ClusterId = int;

/** Global index of an LLC slice (chip-major), 0-based. */
using SliceId = int;

/** Global index of a DRAM channel (chip-major), 0-based. */
using ChannelId = int;

/** Sentinel for "no chip" / unrouted. */
constexpr ChipId invalidChip = -1;

/**
 * Sentinel "no deadline": a run service with nothing time-based left
 * to do reports cycleNever from its nextDue(), and the minimum over
 * all services decides how far the run loop's at-rest jump may go.
 */
constexpr Cycle cycleNever = ~static_cast<Cycle>(0);

/** A gibibyte-per-second at 1 GHz equals one byte per cycle. */
constexpr double bytesPerCyclePerGBs = 1.0;

/**
 * Memory-access kind issued by a warp. Atomics are folded into
 * writes for bandwidth/coherence purposes (software scope).
 */
enum class AccessType : std::uint8_t { Read, Write };

/**
 * The two fundamental LLC organizations SAC switches between.
 * Static/Dynamic partitioned organizations are layered on top of the
 * memory-side substrate (see llc/organization.hh).
 */
enum class LlcMode : std::uint8_t { MemorySide, SmSide };

/** Coherence scheme for organizations that cache remote data. */
enum class CoherenceKind : std::uint8_t { Software, Hardware };

/** Returns a short human-readable name for an LLC mode. */
inline const char *
toString(LlcMode mode)
{
    return mode == LlcMode::MemorySide ? "memory-side" : "SM-side";
}

/** Returns a short human-readable name for a coherence kind. */
inline const char *
toString(CoherenceKind kind)
{
    return kind == CoherenceKind::Software ? "software" : "hardware";
}

} // namespace sac

#endif // SAC_COMMON_TYPES_HH
