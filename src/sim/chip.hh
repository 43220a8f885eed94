/**
 * @file
 * One GPU chip: SM clusters, request/response crossbar ports, LLC
 * slices and the local memory controller, glued to the rest of the
 * system through ChipHooks (implemented by System).
 */

#ifndef SAC_SIM_CHIP_HH
#define SAC_SIM_CHIP_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"
#include "gpu/sm_cluster.hh"
#include "llc/llc_slice.hh"
#include "mem/address_map.hh"
#include "mem/mem_ctrl.hh"
#include "noc/xbar.hh"

namespace sac {

/** System services a chip depends on. */
class ChipHooks
{
  public:
    virtual ~ChipHooks() = default;

    /** Sends a packet across the inter-chip network. */
    virtual void icnSend(ChipId src, ChipId dst, Packet pkt) = 0;
    /** Coherence action for a write applied at @p writer. */
    virtual void handleWrite(const Packet &pkt, ChipId writer) = 0;
    /** Directory: replica of @p line_addr created on @p chip. */
    virtual void replicaAdded(Addr line_addr, ChipId chip) = 0;
    /** Directory: replica of @p line_addr dropped from @p chip. */
    virtual void replicaRemoved(Addr line_addr, ChipId chip) = 0;
    /** A read response was delivered to an SM cluster (Fig. 10). */
    virtual void countResponse(const Packet &pkt) = 0;
    /** Current cycle. */
    virtual Cycle now() const = 0;
};

/** One chip of the multi-chip GPU. */
class Chip : public SliceEnv
{
  public:
    Chip(const GpuConfig &cfg, const AddressMap &map, ChipId id,
         TraceSource &trace, ChipHooks &hooks);

    Chip(const Chip &) = delete;
    Chip &operator=(const Chip &) = delete;

    // --- per-cycle phases, driven by System::tick -----------------------
    /** Drains the response crossbar into the clusters and issues new
     *  accesses. */
    void tickClusters(Cycle now, ClusterEnv &env);
    /** Routes one inter-chip arrival into the right local structure. */
    void acceptIcnArrival(Packet pkt, Cycle now);
    /** Ticks every LLC slice. */
    void tickSlices(Cycle now);
    /** Ticks DRAM and dispatches completed fills. */
    void tickMemory(Cycle now);

    // --- SliceEnv --------------------------------------------------------
    bool memCanAccept(Addr line_addr) const override;
    void memPush(const Packet &pkt) override;
    void sendToChip(ChipId dst, Packet pkt) override;
    void respondCluster(Packet pkt) override;
    void directoryFill(Addr line_addr, ChipId chip) override;
    void directoryEvict(Addr line_addr, ChipId chip) override;
    void coherentWrite(const Packet &pkt, ChipId writer) override;

    // --- control ---------------------------------------------------------
    /** Pushes a request from a local cluster into a local slice port. */
    void pushLocalRequest(const Packet &pkt, Cycle now);
    // Cluster helpers act on clusters [first, first+count): one
    // stream's share, or every cluster for a whole-machine action.
    /** Kernel launch. */
    void beginKernel(std::uint64_t first, std::uint64_t count,
                     std::uint64_t accesses_per_warp, Cycle now);
    /** Invalidates the L1s (software coherence boundary). */
    void flushL1s(std::uint64_t first, std::uint64_t count);
    /** Invalidates one line everywhere on this chip (hw coherence). */
    void invalidateLine(Addr line_addr, int slice);
    /** Stops issue until @p until (drain/flush stalls). */
    void pauseClusters(std::uint64_t first, std::uint64_t count,
                       Cycle until);
    /** Tags clusters [first, first+count) with a kernel stream id. */
    void setClusterStream(std::uint64_t first, std::uint64_t count,
                          int stream);
    /**
     * Two-NoC SM-side baseline: bypass traffic skips the shared
     * crossbar ports and goes straight to the memory queue.
     */
    void setDirectBypass(bool direct) { directBypass = direct; }
    /** Applies a way split to every slice (Static/Dynamic orgs). */
    void setWaySplit(int local_ways);

    // --- queries ----------------------------------------------------------
    /** done() over clusters [first, first+count). */
    bool clustersDone(std::uint64_t first, std::uint64_t count) const;
    std::size_t outstanding() const;
    /**
     * True when a tick of this chip changes nothing: every cluster,
     * slice and response port at rest, no bypass-queue entry and
     * nothing in DRAM.
     */
    bool atRest() const;

    SmCluster &cluster(ClusterId c) { return *clusters[
        static_cast<std::size_t>(c)]; }
    const SmCluster &cluster(ClusterId c) const
    {
        return *clusters[static_cast<std::size_t>(c)];
    }
    LlcSlice &slice(int s) { return *slices[static_cast<std::size_t>(s)]; }
    const LlcSlice &slice(int s) const
    {
        return *slices[static_cast<std::size_t>(s)];
    }
    MemCtrl &memCtrl() { return mem; }
    const MemCtrl &memCtrl() const { return mem; }
    int numClusters() const { return static_cast<int>(clusters.size()); }
    int numSlices() const { return static_cast<int>(slices.size()); }
    ChipId id() const { return id_; }

  private:
    void dispatchFill(const Packet &pkt);

    const GpuConfig &cfg_;
    const AddressMap &map_;
    ChipId id_;
    ChipHooks &hooks;
    bool directBypass = false;

    std::vector<std::unique_ptr<SmCluster>> clusters;
    std::vector<std::unique_ptr<LlcSlice>> slices;
    /** Response network: one bandwidth-limited port per cluster. */
    Xbar respXbar;
    MemCtrl mem;
    /** Bypass requests waiting for memory-queue space (two-NoC mode). */
    Ring<Packet> directBypassQ;
    /** Scratch for MemCtrl::tick() fills, reused across cycles. */
    std::vector<Packet> memFills_;
};

} // namespace sac

#endif // SAC_SIM_CHIP_HH
