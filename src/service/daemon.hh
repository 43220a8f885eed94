/**
 * @file
 * The sacsimd service core: accepts sac.sweep.v1 requests, runs each
 * plan on its own fault-isolated ExperimentEngine backed by the one
 * persistent ResultCache, and streams sac.sweep-result.v1 events back
 * as records are delivered: a record event from the engine's
 * onProgress callback per job, then a done event built from what
 * run() returns.
 *
 * Concurrency model: serve() accepts up to --connections simultaneous
 * client sessions, each handled by its own thread. Sessions share the
 * one cache; *plans* serialize through a FIFO
 * admission gate (one plan running, a bounded queue of --plan-queue
 * waiters), so the daemon never runs more than --jobs simulation
 * workers no matter how many clients connect, and a plan's record
 * stream is byte-identical whether it was submitted alone or next to
 * three competitors. A submission that would overflow the queue is
 * refused immediately with a retryable error event instead of being
 * stranded.
 *
 * Cancellation: every plan runs under a CancelToken chain — per-plan
 * (deadline_ms / --max-plan-wall-ms, measured from request parse so
 * queue wait counts) → per-session (client disconnect mid-stream) →
 * daemon-wide drain token (SIGTERM/SIGINT). A cancelled plan still
 * completes its protocol: unfinished jobs become timed_out records,
 * the done event still fires, and records already streamed are
 * byte-identical to the same prefix of an uncancelled run.
 *
 * Graceful drain: SIGTERM/SIGINT (via installSignalHandlers(), which
 * writes to a self-pipe the accept loop polls) stops accepting,
 * lets in-flight plans finish for up to --drain-ms, then cancels
 * them, joins every session, prunes the cache to budget and unlinks
 * the socket — exit 0, never SIGKILL-by-default. requestShutdown()
 * triggers the same sequence programmatically (tests use it).
 *
 * Transports: the unix socket loop (serve()) and any istream/ostream
 * pair (serveStream(), the testable single-session core). Both frame
 * input with the same bounded line framer (--max-line-bytes) and
 * hand each line to the same dispatch, so a hostile 10 MB request
 * line is answered with a clean error event instead of unbounded
 * buffering, and every other line reaches handleRequest().
 *
 * Memoization contract: the daemon holds one ResultCache for its
 * whole lifetime, so a plan submitted twice — on the same or a later
 * connection, before or after a drain — performs zero System runs
 * the second time and streams byte-identical record lines.
 */

#ifndef SAC_SERVICE_DAEMON_HH
#define SAC_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>

#include "service/result_cache.hh"
#include "sim/cancel.hh"

namespace sac::service {

struct DaemonOptions
{
    /** Unix socket path (serve() only). */
    std::string socketPath;
    /** Result-cache directory; empty = no cache (pure compute). */
    std::string cacheDir;
    /** Engine worker threads per plan (0 = hardware_concurrency). */
    unsigned jobs = 1;
    /** Max simultaneous client sessions; extra connections get an
     *  immediate retryable error event. 0 = unbounded. */
    unsigned connections = 4;
    /** Total sessions to serve before returning; 0 = serve forever
     *  (until a shutdown signal). */
    unsigned maxSessions = 0;
    /** Plans allowed to wait behind the running one; a submission
     *  past that is refused with a retryable error event. */
    unsigned planQueue = 8;
    /** Daemon-side wall-clock cap per plan, milliseconds, measured
     *  from request parse; tightens any client deadline_ms. 0 = no
     *  cap. */
    std::uint64_t maxPlanWallMs = 0;
    /** Grace for in-flight plans on shutdown, milliseconds; when it
     *  expires they are cancelled. 0 = cancel immediately. */
    std::uint64_t drainMs = 5000;
    /** Longest accepted request line; longer lines are discarded and
     *  answered with an error event. */
    std::size_t maxLineBytes = 1u << 20;
    /** Cache size budget, pruned after each plan and on shutdown
     *  (default: unbounded). */
    ResultCache::Budget cacheBudget;
};

class Daemon
{
  public:
    /** Writes one response line (no trailing newline expected). */
    using EmitFn = std::function<void(const std::string &)>;

    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Binds the unix socket (replacing a stale file), then accepts
     * and serves sessions until the configured count is reached or a
     * shutdown is requested, then drains. Returns 0, or throws
     * ValidationError on socket setup failure.
     */
    int serve();

    /**
     * Serves one session over a stream pair: one request per input
     * line (bounded by maxLineBytes), events written and flushed per
     * line.
     */
    void serveStream(std::istream &in, std::ostream &out);

    /**
     * The transport-free core: parses @p line, admits the plan
     * through the gate, runs it under its cancellation chain, emits
     * response events through @p emit. Never throws — failures
     * become an "error" event. Blank lines are ignored. @p session,
     * when non-null, is the session's token (client disconnect /
     * drain); the per-plan deadline token links to it.
     */
    void handleRequest(const std::string &line, const EmitFn &emit,
                       const CancelToken *session = nullptr);

    /**
     * Begins graceful drain, asynchronously and signal-safely: one
     * write to the self-pipe serve() polls. Callable from any thread
     * or from a signal handler.
     */
    void requestShutdown();

    /**
     * Points SIGTERM and SIGINT at the currently serving daemon's
     * self-pipe (no SA_RESTART, so blocking syscalls EINTR). The
     * handler is a no-op while no serve() is active.
     */
    static void installSignalHandlers();

    /** True once drain has begun (accept loop stopped). */
    bool draining() const { return draining_.load(); }

    /** The shared cache, when one is configured. */
    ResultCache *cache() { return cache_ ? &*cache_ : nullptr; }

  private:
    struct SessionSlot;

    /** One client session, run on its own thread. */
    void session(SessionSlot &slot);

    /** One framed input line, from either transport: an error event
     *  when it overflowed maxLineBytes, else handleRequest(). */
    void dispatchLine(const EmitFn &emit, const CancelToken *session,
                      const std::string &line, bool oversize);

    /**
     * FIFO plan admission: blocks until this caller's turn, or
     * returns false immediately when the wait queue is full.
     */
    bool gateAcquire();
    void gateRelease();

    /** Drains the self-pipe; true when a shutdown byte was seen. */
    bool drainWakePipe();
    void pruneCache();

    DaemonOptions options_;
    std::optional<ResultCache> cache_;

    /** Root of every session's cancellation chain; armed on drain. */
    CancelToken drainToken_;
    std::atomic<bool> draining_{false};
    /** Self-pipe: [0] polled by serve(), [1] written by
     *  requestShutdown() / session-exit wakeups. */
    int wake_[2] = {-1, -1};

    std::mutex gateMutex_;
    std::condition_variable gateCv_;
    /** Ticket counters: next ticket to hand out / now being served.
     *  Their difference is the number of plans in the system. */
    std::uint64_t gateNext_ = 0;
    std::uint64_t gateServing_ = 0;
};

} // namespace sac::service

#endif // SAC_SERVICE_DAEMON_HH
