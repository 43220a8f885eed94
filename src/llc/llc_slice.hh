/**
 * @file
 * One LLC slice with SAC's bypass path and selection logic (Fig. 3c).
 *
 * The slice serves requests from its input queue (the crossbar output
 * port feeding it), performing tag lookups against a partitionable
 * set-associative array. Depending on the packet's routing fields it
 * acts as:
 *
 *  - a memory-side slice (serve == home): misses go to the local
 *    memory controller;
 *  - an SM-side slice (serve == requester): misses to remote data are
 *    sent across the inter-chip network with the bypass flag set;
 *  - the home level of a partitioned (Static/Dynamic) organization:
 *    packets with atHome set look up here after missing in the
 *    requester-side remote partition;
 *  - a pure bypass conduit: packets with bypassLlc set skip the array
 *    and head straight for the memory-controller queue, sharing it
 *    with local misses (Section 3.1).
 */

#ifndef SAC_LLC_LLC_SLICE_HH
#define SAC_LLC_LLC_SLICE_HH

#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/config.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/queue.hh"

namespace sac {

/** Wiring the slice needs from its chip/system. */
class SliceEnv
{
  public:
    virtual ~SliceEnv() = default;

    /** True when the local memory controller can take @p line_addr. */
    virtual bool memCanAccept(Addr line_addr) const = 0;
    /** Hands a fetch/writeback to the local memory controller. */
    virtual void memPush(const Packet &pkt) = 0;
    /** Sends @p pkt across the inter-chip network to @p dst. */
    virtual void sendToChip(ChipId dst, Packet pkt) = 0;
    /** Delivers a response to a cluster on this chip. */
    virtual void respondCluster(Packet pkt) = 0;
    /** Directory: a replica of @p line_addr now exists on @p chip. */
    virtual void directoryFill(Addr line_addr, ChipId chip) = 0;
    /** Directory: the replica on @p chip was evicted. */
    virtual void directoryEvict(Addr line_addr, ChipId chip) = 0;
    /** Hardware coherence: @p writer wrote @p pkt's line. */
    virtual void coherentWrite(const Packet &pkt, ChipId writer) = 0;
};

/** Per-slice statistics (also the EAB profiling source). */
struct SliceStats
{
    std::uint64_t requests = 0;      //!< lookups performed
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        //!< includes sector misses
    std::uint64_t sectorMisses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t bypasses = 0;      //!< packets using the bypass path
    std::uint64_t writebacks = 0;
    std::uint64_t fills = 0;
    std::uint64_t hitsFromRemote = 0; //!< hits for other chips' SMs
    std::uint64_t stallsMshrFull = 0;
};

/** One LLC slice. */
class LlcSlice
{
  public:
    LlcSlice(const GpuConfig &cfg, ChipId chip, int index);

    /** Input queue: the crossbar port that feeds this slice. */
    BwQueue &inQueue() { return inQ; }

    /**
     * Second virtual channel: home-level (atHome) requests, bypass
     * traffic and incoming writebacks. Keeping these out of inQueue()
     * is required for deadlock freedom — a first-level MSHR-full
     * stall must never block the home-level progress other chips'
     * MSHRs are waiting on (circular wait across chips otherwise).
     */
    BwQueue &vcQueue() { return vcQ; }

    /** Delivers a fill/response from memory or the inter-chip net. */
    void pushFill(const Packet &pkt);

    /** Processes fills and requests for one cycle. */
    void tick(Cycle now, SliceEnv &env);

    /** Tag/state array (flush and partition control live here). */
    SetAssocCache &cache() { return array; }
    const SetAssocCache &cache() const { return array; }

    const SliceStats &stats() const { return stats_; }
    void resetStats() { stats_ = SliceStats{}; }

    /**
     * Sizes the per-stream request/hit accounting for @p streams
     * kernel streams (one by default) and zeroes it. Every request
     * counts against its packet's stream.
     */
    void setStreamCount(int streams)
    {
        streamReq_.assign(static_cast<std::size_t>(streams), 0);
        streamHits_.assign(static_cast<std::size_t>(streams), 0);
    }
    std::uint64_t streamRequests(int stream) const
    {
        return streamReq_[static_cast<std::size_t>(stream)];
    }
    std::uint64_t streamHits(int stream) const
    {
        return streamHits_[static_cast<std::size_t>(stream)];
    }

    /** Outstanding misses (drain check for reconfiguration). */
    std::size_t outstanding() const
    {
        return mshrs.inUse() + homeMshrs.inUse() + missQ.size() +
               fillQ.size() + inQ.size() + vcQ.size();
    }

    /**
     * True when tick() is a no-op: nothing outstanding, both input
     * queues at rest, and the array budget at its 2 * bw cap.
     */
    bool atRest() const
    {
        return outstanding() == 0 && inQ.atRest() && vcQ.atRest() &&
               budget == 2.0 * arrayBw;
    }

    // Queue introspection (tests and debugging).
    std::size_t mshrsInUse() const { return mshrs.inUse(); }
    std::size_t missQueued() const { return missQ.size(); }
    std::size_t fillQueued() const { return fillQ.size(); }
    std::size_t inQueued() const { return inQ.size(); }

    ChipId chip() const { return chip_; }
    int index() const { return index_; }

  private:
    /**
     * True when request @p head must wait at the head of its queue:
     * @p file is full, no entry for its line can take it as a merge,
     * and the array does not hold it.
     */
    bool missWouldStall(const MshrFile &file, const Packet &head) const;
    void processRequest(Packet pkt, Cycle now, SliceEnv &env);
    void processFill(const Packet &pkt, Cycle now, SliceEnv &env);
    void forwardMiss(Packet pkt, Cycle now, SliceEnv &env);
    void drainMissQ(Cycle now, SliceEnv &env);
    void emitWriteback(Addr line_addr, ChipId home, Cycle now, SliceEnv &env);
    void respond(Packet resp, SliceEnv &env);

    ChipId chip_;
    int index_;

    unsigned lineBytes;
    unsigned sectorBytes;
    unsigned requestBytes;
    double arrayBw;
    double budget = 0.0;

    BwQueue inQ;
    BwQueue vcQ;
    Ring<Packet> fillQ;
    /** Primary misses waiting for memory-controller queue space. */
    Ring<Packet> missQ;
    /** Scratch for MshrFile::complete() targets, reused across fills. */
    std::vector<Packet> fillTargets_;
    MshrFile mshrs;
    /**
     * Dedicated MSHRs for home-level (atHome) misses. Separate from
     * the first-level file so home-level progress — which other
     * chips' first-level MSHRs wait on — can never be starved by
     * first-level allocation (deadlock freedom).
     */
    MshrFile homeMshrs;
    SetAssocCache array;
    SliceStats stats_;
    /** Per-stream accounting, indexed by Packet::stream. */
    std::vector<std::uint64_t> streamReq_ = {0};
    std::vector<std::uint64_t> streamHits_ = {0};
};

} // namespace sac

#endif // SAC_LLC_LLC_SLICE_HH
