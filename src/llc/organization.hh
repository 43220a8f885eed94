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
 */

#ifndef SAC_LLC_ORGANIZATION_HH
#define SAC_LLC_ORGANIZATION_HH

#include <memory>
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
 * The System consults it on every L1 miss and at kernel boundaries.
 */
class Organization
{
  public:
    virtual ~Organization() = default;

    virtual OrgKind kind() const = 0;
    virtual const char *name() const { return toString(kind()); }

    /** Routing policy in effect right now. */
    virtual const RoutingPolicy &routing() const = 0;

    /**
     * True when the organization caches data away from its home chip
     * and therefore needs coherence (kernel-boundary flushes under
     * software coherence, directory invalidations under hardware).
     */
    virtual bool cachesRemoteData() const = 0;

    /**
     * True for the two-NoC SM-side baseline: remote bypass traffic
     * and fills skip the shared crossbar ports.
     */
    virtual bool separateRemoteNoc() const { return false; }

    /** Initial local-partition way count out of @p ways. */
    virtual int initialWaySplit(int ways) const { return ways; }

    /** True when the way split is adjusted at run time. */
    virtual bool dynamicPartitioning() const { return false; }

    /** Factory for the four fixed baselines (not SAC). */
    static std::unique_ptr<Organization> make(OrgKind kind);
};

/** Memory-side LLC baseline. */
class MemorySideOrg : public Organization
{
  public:
    OrgKind kind() const override { return OrgKind::MemorySide; }
    const RoutingPolicy &routing() const override { return policy; }
    bool cachesRemoteData() const override { return false; }

  private:
    MemorySideRouting policy;
};

/** Two-NoC SM-side LLC baseline. */
class SmSideOrg : public Organization
{
  public:
    OrgKind kind() const override { return OrgKind::SmSide; }
    const RoutingPolicy &routing() const override { return policy; }
    bool cachesRemoteData() const override { return true; }
    bool separateRemoteNoc() const override { return true; }

  private:
    SmSideRouting policy;
};

/** Static (L1.5) half-local/half-remote partitioned LLC. */
class StaticLlcOrg : public Organization
{
  public:
    OrgKind kind() const override { return OrgKind::StaticLlc; }
    const RoutingPolicy &routing() const override { return policy; }
    bool cachesRemoteData() const override { return true; }
    int initialWaySplit(int ways) const override { return ways / 2; }

  private:
    PartitionedRouting policy;
};

/** Dynamic way-partitioned LLC. */
class DynamicLlcOrg : public Organization
{
  public:
    OrgKind kind() const override { return OrgKind::DynamicLlc; }
    const RoutingPolicy &routing() const override { return policy; }
    bool cachesRemoteData() const override { return true; }
    int initialWaySplit(int ways) const override { return ways / 2; }
    bool dynamicPartitioning() const override { return true; }

  private:
    PartitionedRouting policy;
};

/**
 * SAC's reconfigurable organization: a memory-side substrate whose
 * routing policy and bypass logic flip to SM-side when the EAB model
 * says so. Mode changes are performed by sac::TenantSacService.
 */
class SacOrg : public Organization
{
  public:
    OrgKind kind() const override { return OrgKind::Sac; }

    const RoutingPolicy &routing() const override
    {
        return mode_ == LlcMode::MemorySide
                   ? static_cast<const RoutingPolicy &>(memPolicy)
                   : static_cast<const RoutingPolicy &>(smPolicy);
    }

    bool cachesRemoteData() const override
    {
        return mode_ == LlcMode::SmSide;
    }

    LlcMode mode() const { return mode_; }
    void setMode(LlcMode mode) { mode_ = mode; }

  private:
    LlcMode mode_ = LlcMode::MemorySide;
    MemorySideRouting memPolicy;
    SmSideRouting smPolicy;
};

} // namespace sac

#endif // SAC_LLC_ORGANIZATION_HH
