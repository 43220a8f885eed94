/**
 * @file
 * Persistent content-addressed result cache: the "never simulate the
 * same job twice" store behind sacsimd and sacsim --cache.
 *
 * Layout: one flat directory, one JSON file per cached job, named by
 * the job's 64-bit content hash in zero-padded hex
 * ("<016x-hash>.json"). Each entry is a sac.cache.v1 document:
 *
 *   { "schema": "sac.cache.v1",
 *     "plan":   "<planSchemaVersion>",
 *     "key":    "<canonicalJobKey(job)>",
 *     "record": { ...RunRecord, canonical (no timing)... } }
 *
 * The full canonical key is stored next to the hash, so a lookup
 * verifies the key byte-for-byte: a hash collision or an entry
 * written under a different plan schema is rejected and re-simulated
 * instead of served wrong.
 *
 * Writes are atomic: each store serializes to a private temporary in
 * the same directory and rename()s it over the final name, so a
 * reader never sees a torn entry and concurrent writers of the same
 * key resolve to one winner (last rename wins — both wrote the same
 * bytes by construction). The reader is tolerant: an unreadable,
 * unparseable, wrong-schema or key-mismatched entry is counted and
 * treated as a miss; the next store overwrites it. Because the engine
 * stores each ok record as it is delivered, rerunning an interrupted
 * sweep on the same directory is how it resumes: stored jobs hit and
 * only the rest simulate.
 *
 * Eviction: a byte/entry Budget with LRU-by-mtime pruning (lookup
 * hits touch the entry's mtime). prune() runs under an advisory
 * flock() on <dir>/.prune.lock — flock releases on process death, so
 * a pruner SIGKILLed mid-run never wedges the cache — and removes
 * entries with atomic unlink()s only, oldest mtime first, until the
 * store fits the budget. Concurrent stores during a prune are safe
 * (an entry is either fully present or absent, never partial); they
 * can momentarily push the store back over budget, which the next
 * prune corrects. The store stays an idempotent flat CAS — every
 * pruned entry regenerates by re-simulation; see docs/SERVICE.md.
 */

#ifndef SAC_SERVICE_RESULT_CACHE_HH
#define SAC_SERVICE_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "sim/engine.hh"
#include "sim/plan.hh"

namespace sac::service {

/** On-disk JobCache implementation (see sim/engine.hh). */
class ResultCache : public JobCache
{
  public:
    /** Cumulative counters over this instance's lifetime. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        /** Entries present but unusable (torn, corrupt, wrong
         *  schema, key mismatch); each also counts as a miss. */
        std::uint64_t rejected = 0;
    };

    /** Size bound for prune(); zero fields are unbounded. */
    struct Budget
    {
        /** Max total bytes of cache entries (0 = unbounded). */
        std::uint64_t maxBytes = 0;
        /** Max number of cache entries (0 = unbounded). */
        std::uint64_t maxEntries = 0;

        bool any() const { return maxBytes > 0 || maxEntries > 0; }
    };

    /** What one prune() pass saw and did. */
    struct PruneReport
    {
        /** False when the pass was skipped: no budget configured, or
         *  another process held the prune lock. */
        bool ran = false;
        std::uint64_t scannedEntries = 0;
        std::uint64_t scannedBytes = 0;
        std::uint64_t removedEntries = 0;
        std::uint64_t removedBytes = 0;
        /** Abandoned temporaries from crashed writers cleaned up. */
        std::uint64_t staleTmps = 0;
    };

    /** Full-store integrity scan result (see verify()). */
    struct VerifyReport
    {
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
        /** Entries the tolerant reader would reject: unparseable,
         *  wrong schema, or filename != hash(stored key). */
        std::uint64_t rejected = 0;
    };

    /**
     * Opens (and creates, including parents) the cache directory.
     * Throws ValidationError when the directory cannot be created.
     */
    explicit ResultCache(std::string dir);

    /**
     * The cached record for @p job, or nullopt. Served records are
     * byte-identical (canonical fields) to the run that stored them;
     * the engine re-stamps jobIndex/label/source for this run.
     */
    std::optional<RunRecord> lookup(const ExperimentJob &job) override;

    /**
     * Persists an ok record under the job's content hash; non-ok
     * records are ignored. IO failures warn and drop the entry —
     * the cache is an optimization, never a correctness dependency.
     */
    void store(const ExperimentJob &job, const RunRecord &record) override;

    Stats stats() const;

    /** Sets the size budget prune() enforces (default: unbounded). */
    void setBudget(const Budget &budget);
    Budget budget() const;

    /**
     * Prunes the store to the configured budget, least-recently-used
     * (by mtime; lookup touches entries) first. Serialized across
     * processes by flock() on <dir>/.prune.lock — when another pruner
     * holds the lock the pass is skipped (ran = false) rather than
     * waited for. Uses atomic unlink()s only and tolerates being
     * killed at any point: survivors are always complete entries.
     * Also sweeps temporaries abandoned by crashed writers. No-op
     * without a budget; prune(budget) overrides the configured one
     * for maintenance tooling (sacsimd --prune-only).
     */
    PruneReport prune();
    PruneReport prune(const Budget &budget);

    /**
     * Tolerant integrity scan of every entry on disk: parses each,
     * checks the schema and that the filename matches the hash of the
     * stored canonical key. Counts — never throws, never repairs.
     * The CI soak asserts rejected == 0 after concurrent sessions, a
     * mid-sweep SIGTERM and a SIGKILLed prune.
     */
    VerifyReport verify() const;

    const std::string &directory() const { return dir_; }

    /** Entry file path for @p job (exposed for tests and tooling). */
    std::string entryPath(const ExperimentJob &job) const;

    /** The prune lockfile path (exposed for tests and tooling). */
    std::string pruneLockPath() const;

  private:
    std::string dir_;
    mutable std::mutex mutex_;
    Stats stats_;
    Budget budget_;
    std::atomic<std::uint64_t> tmpSerial_{0};
};

} // namespace sac::service

#endif // SAC_SERVICE_RESULT_CACHE_HH
