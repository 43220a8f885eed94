/**
 * @file
 * Cooperative cancellation for experiment plans.
 *
 * A CancelToken is the one cancellation signal shared by everything
 * that can stop a plan early: a client's deadline_ms, the daemon's
 * --max-plan-wall-ms cap, a client disconnecting mid-stream, and the
 * daemon's drain deadline on SIGTERM. Producers call cancel() or arm
 * a wall-clock deadline; consumers poll cancelled() in the run loop's
 * control step (System::control, next to the other run limits) and
 * between jobs in the ExperimentEngine, so an observed cancellation
 * turns the remaining work into timed_out records instead of tearing
 * anything down.
 *
 * Tokens chain: linkParent() makes this token observe another one,
 * so a per-plan token (request deadline) cancels when its session
 * token (client disconnect) or the daemon-wide drain token fires,
 * without any of the three knowing about the others' producers.
 *
 * Thread safety: cancel(), setDeadlineAfterMs(), cancelled() and
 * reason() may race freely across threads. linkParent() is
 * construction-time wiring — call it before the token is shared.
 *
 * Determinism note: cancellation is wall-clock by nature, so WHICH
 * jobs get cut short is not reproducible — but records delivered
 * before the cancellation are byte-identical to the same prefix of
 * an uncancelled run (plan-order delivery holds them to the same
 * bytes), and cancelled jobs are never cached. The cancellation
 * determinism test pins exactly this contract.
 */

#ifndef SAC_SIM_CANCEL_HH
#define SAC_SIM_CANCEL_HH

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

namespace sac {

/** A latching cancellation flag with an optional wall deadline and
 *  an optional parent token to observe. */
class CancelToken
{
  public:
    CancelToken() = default;

    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /**
     * Latches the token cancelled. Idempotent; the first reason
     * sticks so late cancellers never rewrite the diagnostic a job
     * already embedded.
     */
    void cancel(const std::string &reason);

    /**
     * Arms (or tightens) a wall-clock deadline @p ms from now; the
     * token reads as cancelled once the deadline passes. A later,
     * looser deadline never extends an earlier, tighter one.
     */
    void setDeadlineAfterMs(double ms, const std::string &reason);

    /**
     * Makes this token observe @p parent: cancelled() is true when
     * the parent is cancelled too. Wiring, not synchronization —
     * call before the token is shared across threads. The parent
     * must outlive this token.
     */
    void linkParent(const CancelToken *parent) { parent_ = parent; }

    /**
     * True once cancel() was called, an armed deadline passed, or a
     * linked parent is cancelled. Latching: never returns true then
     * false. Cheap when untriggered (one relaxed atomic load per
     * level plus a clock read while a deadline is armed), so it is
     * safe to poll from strided watchdog checks.
     */
    bool cancelled() const;

    /** Why the token cancelled; empty while cancelled() is false. */
    std::string reason() const;

  private:
    /** Latches flag_ and records @p reason if none stuck yet. */
    void latch(const std::string &reason) const;

    mutable std::mutex mutex_;
    mutable std::atomic<bool> flag_{false};
    std::atomic<bool> armed_{false};
    std::chrono::steady_clock::time_point deadline_{};
    std::string deadlineReason_;
    mutable std::string reason_;
    const CancelToken *parent_ = nullptr;
};

} // namespace sac

#endif // SAC_SIM_CANCEL_HH
