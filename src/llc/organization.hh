/**
 * @file
 * The five evaluated LLC organizations (Section 5 of the paper).
 *
 *  - Memory-side LLC: the commercial baseline.
 *  - SM-side LLC: the two-NoC implementation (remote traffic does not
 *    compete with intra-chip traffic, at 21%/18% NoC power/area cost).
 *  - Static LLC: the L1.5 design — half the capacity for local data,
 *    half for remote data (Arunkumar et al.).
 *  - Dynamic LLC: runtime way partitioning between local and remote
 *    data (Milic et al.), driven by DynamicPartitionController.
 *  - SAC: starts memory-side, profiles, and may reconfigure to
 *    SM-side per kernel (driven by sac::TenantSacService).
 *
 * All five share one memory-side substrate with bypass paths and a
 * routing switch (Fig. 6): an organization differs only in which
 * slice serves a miss and a few policy bits, so it is one value — its
 * kind plus SAC's live mode — and every trait is one switch.
 */

#ifndef SAC_LLC_ORGANIZATION_HH
#define SAC_LLC_ORGANIZATION_HH

#include <string>

#include "common/types.hh"
#include "noc/routing.hh"

namespace sac {

/** Identifies one of the evaluated organizations. */
enum class OrgKind { MemorySide, SmSide, StaticLlc, DynamicLlc, Sac };

/** Returns the display name used in tables ("Memory-side", ...). */
const char *toString(OrgKind kind);

/**
 * Parses the short organization names shared by the sacsim CLI and
 * the sacsimd wire protocol: mem | sm | static | dynamic | sac.
 * Throws ValidationError on anything else.
 */
OrgKind orgKindFromName(const std::string &name);

/**
 * Organization policy: routing + partitioning + coherence behaviour.
 * The System consults it on every L1 miss and at kernel boundaries;
 * sac::TenantSacService flips a SAC organization's mode.
 */
class Organization
{
  public:
    explicit Organization(OrgKind kind) : kind_(kind) {}

    OrgKind kind() const { return kind_; }
    const char *name() const { return toString(kind_); }

    /** SAC's live mode; MemorySide for every other organization. */
    LlcMode mode() const { return mode_; }
    /** Switches SAC's routing and bypass logic. @pre kind() == Sac. */
    void setMode(LlcMode mode);

    /** Mode tag of a telemetry sample: SAC's mode, else name(). */
    const char *modeName() const;

    /** Routes a miss from @p src to a line homed on @p home. */
    RoutePlan route(Addr line_addr, ChipId src, ChipId home,
                    const AddressMap &map) const;

    /**
     * True when the organization caches data away from its home chip
     * and therefore needs coherence (kernel-boundary flushes under
     * software coherence, directory invalidations under hardware).
     */
    bool cachesRemoteData() const;

    /**
     * True when the kernel-boundary flush keeps home-resident lines
     * and drops only replicas (Static/Dynamic: the local partition
     * is memory-side and needs no coherence).
     */
    bool flushesReplicasOnly() const { return partitioned(); }

    /**
     * True for the two-NoC SM-side baseline: remote bypass traffic
     * and fills skip the shared crossbar ports.
     */
    bool separateRemoteNoc() const { return kind_ == OrgKind::SmSide; }

    /** Initial local-partition way count out of @p ways. */
    int initialWaySplit(int ways) const
    {
        return partitioned() ? ways / 2 : ways;
    }

    /** True when the way split is adjusted at run time. */
    bool dynamicPartitioning() const { return kind_ == OrgKind::DynamicLlc; }

  private:
    /** Static and Dynamic: local and remote way partitions. */
    bool partitioned() const
    {
        return kind_ == OrgKind::StaticLlc || kind_ == OrgKind::DynamicLlc;
    }

    OrgKind kind_;
    LlcMode mode_ = LlcMode::MemorySide;
};

} // namespace sac

#endif // SAC_LLC_ORGANIZATION_HH
