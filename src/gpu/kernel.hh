/**
 * @file
 * Kernel and memory-trace abstractions.
 *
 * The simulator is trace-driven at the memory-access level: SM
 * pipelines are abstracted into per-warp compute gaps between
 * accesses, which is the fidelity the LLC-organization question needs
 * (see DESIGN.md, substitution table). A TraceSource synthesizes the
 * access stream for each (chip, cluster, warp); the workload library
 * provides generators parameterized by the paper's Table 4.
 */

#ifndef SAC_GPU_KERNEL_HH
#define SAC_GPU_KERNEL_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace sac {

/** One warp memory access produced by a trace source. */
struct MemAccess
{
    Addr lineAddr = 0;
    std::uint8_t sector = 0;
    AccessType type = AccessType::Read;
    /** Compute cycles the warp spends before its next access. */
    std::uint16_t gap = 0;
};

/** Synthesizes per-warp access streams. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produces the next access of @p warp on (@p chip, @p cluster).
     * The stream is conceptually infinite; the kernel descriptor
     * bounds how many accesses each warp issues.
     */
    virtual MemAccess next(ChipId chip, ClusterId cluster, int warp) = 0;

    /** Notifies the source that kernel @p kernel_index is launching. */
    virtual void beginKernel(int kernel_index) { (void)kernel_index; }

    /**
     * Multi-tenant variant: kernel @p kernel_index of @p stream is
     * launching. Single-stream sources only track stream 0, which
     * keeps every pre-scenario TraceSource working unchanged.
     */
    virtual void beginStreamKernel(int stream, int kernel_index)
    {
        if (stream == 0)
            beginKernel(kernel_index);
    }
};

/** Launch parameters of one kernel invocation. */
struct KernelDescriptor
{
    int index = 0;
    std::string name = "kernel";
    /** Accesses each warp issues before retiring. */
    std::uint64_t accessesPerWarp = 128;
    /** Kernel stream this invocation belongs to (0 in a plain run). */
    int stream = 0;
};

} // namespace sac

#endif // SAC_GPU_KERNEL_HH
