#include "service/daemon.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "service/protocol.hh"
#include "sim/engine.hh"

namespace sac::service {

namespace {

bool
blankLine(const std::string &line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

/** Best-effort id recovery for error events on malformed requests. */
std::string
requestId(const std::string &line)
{
    try {
        const json::Value doc = json::parse(line);
        if (doc.has("id"))
            return doc.at("id").asString();
    } catch (...) {
    }
    return "";
}

/** Sends every byte of @p bytes; false once the peer is gone. */
bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // peer went away; drop the rest
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Newline framing with a hard per-line byte bound. An over-long line
 * stops buffering immediately (memory stays bounded no matter what
 * the peer sends), is discarded up to its newline, and is delivered
 * once as oversize=true with an empty payload so the session can
 * answer with one clean error event.
 */
class LineFramer
{
  public:
    explicit LineFramer(std::size_t maxBytes) : max_(maxBytes) {}

    template <typename OnLine>
    void
    feed(const char *data, std::size_t n, OnLine &&onLine)
    {
        for (std::size_t i = 0; i < n; ++i) {
            const char c = data[i];
            if (c == '\n') {
                onLine(std::move(buffer_), oversize_);
                buffer_.clear();
                oversize_ = false;
                continue;
            }
            if (oversize_)
                continue;
            if (buffer_.size() >= max_) {
                oversize_ = true;
                buffer_.clear();
                continue;
            }
            buffer_ += c;
        }
    }

    /** Delivers a trailing newline-less line at end of stream. */
    template <typename OnLine>
    void
    finish(OnLine &&onLine)
    {
        if (oversize_ || !buffer_.empty())
            onLine(std::move(buffer_), oversize_);
        buffer_.clear();
        oversize_ = false;
    }

  private:
    std::size_t max_;
    std::string buffer_;
    bool oversize_ = false;
};

std::string
oversizeMessage(std::size_t maxBytes)
{
    return "request line exceeds the line-length limit (" +
           std::to_string(maxBytes) + " bytes)";
}

/** Where SIGTERM/SIGINT deliver their wakeup: the write end of the
 *  currently serving daemon's self-pipe, or -1. */
std::atomic<int> signalWakeFd{-1};

extern "C" void
onShutdownSignal(int)
{
    const int fd = signalWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const char byte = 'q';
        // Async-signal-safe; a full pipe already holds a wakeup.
        [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
}

} // namespace

/** Book-keeping for one accepted connection. */
struct Daemon::SessionSlot
{
    int fd = -1;
    std::thread thread;
    /** Set by the session thread just before it exits; the accept
     *  loop joins and frees done slots. */
    std::atomic<bool> done{false};
    /** Cancelled on client disconnect; parent is the drain token. */
    CancelToken token;
};

Daemon::Daemon(DaemonOptions options) : options_(std::move(options))
{
    if (!options_.cacheDir.empty()) {
        cache_.emplace(options_.cacheDir);
        cache_->setBudget(options_.cacheBudget);
    }
    if (::pipe(wake_) != 0)
        invalid("sacsimd", "pipe(): ", std::strerror(errno));
    // Non-blocking on both ends: the signal handler must never block
    // on a full pipe, and drainWakePipe() reads until empty.
    for (const int fd : wake_)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    for (const int fd : wake_)
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

Daemon::~Daemon()
{
    for (const int fd : wake_) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
Daemon::requestShutdown()
{
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
}

void
Daemon::installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = &onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: blocking syscalls must EINTR
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

bool
Daemon::drainWakePipe()
{
    bool quit = false;
    char buf[64];
    ssize_t n;
    while ((n = ::read(wake_[0], buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i)
            quit = quit || buf[i] == 'q';
    }
    return quit;
}

bool
Daemon::gateAcquire()
{
    std::unique_lock<std::mutex> lock(gateMutex_);
    // gateNext_ - gateServing_ plans are in the system: one running
    // plus the waiters. Refusing instead of queueing past the bound
    // keeps admission fair (FIFO among admitted) and the refusal
    // instant (retryable error) instead of an unbounded stall.
    if (gateNext_ - gateServing_ > options_.planQueue)
        return false;
    const std::uint64_t ticket = gateNext_++;
    gateCv_.wait(lock, [&] { return gateServing_ == ticket; });
    return true;
}

void
Daemon::gateRelease()
{
    {
        std::lock_guard<std::mutex> lock(gateMutex_);
        ++gateServing_;
    }
    gateCv_.notify_all();
}

void
Daemon::pruneCache()
{
    if (cache_ && options_.cacheBudget.any())
        cache_->prune();
}

void
Daemon::handleRequest(const std::string &line, const EmitFn &emit,
                      const CancelToken *session)
{
    if (blankLine(line))
        return;

    SweepRequest request;
    try {
        request = parseRequest(line);
    } catch (const std::exception &e) {
        emit(errorEvent(requestId(line), e.what(), false));
        return;
    }

    // The deadline clock starts here, before admission, so a plan
    // cannot dodge its budget by sitting in the queue.
    CancelToken planToken;
    planToken.linkParent(session);
    std::uint64_t deadlineMs = request.deadlineMs;
    if (options_.maxPlanWallMs > 0 &&
        (deadlineMs == 0 || options_.maxPlanWallMs < deadlineMs)) {
        deadlineMs = options_.maxPlanWallMs;
    }
    if (deadlineMs > 0) {
        planToken.setDeadlineAfterMs(
            static_cast<double>(deadlineMs),
            "plan deadline (" + std::to_string(deadlineMs) +
                " ms) exceeded");
    }

    if (!gateAcquire()) {
        emit(errorEvent(request.id,
                        "plan queue is full; resubmit after a backoff",
                        true));
        return;
    }
    struct GateGuard
    {
        Daemon &daemon;
        ~GateGuard() { daemon.gateRelease(); }
    } guard{*this};

    try {
        ExperimentEngine engine(options_.jobs);
        engine.setCache(cache());
        engine.setCancelToken(&planToken);
        engine.onProgress([&](const EngineProgress &event) {
            emit(recordEvent(request, event));
        });
        EngineTelemetry tm;
        SweepCounts counts;
        counts.jobs = engine.run(request.plan, &tm).size();
        counts.simulated = counts.jobs - tm.cacheHits;
        counts.cacheHits = tm.cacheHits;
        counts.cacheMisses = tm.cacheMisses;
        emit(doneEvent(request, counts));
    } catch (const std::exception &e) {
        emit(errorEvent(request.id, e.what(), false));
    }
    pruneCache();
}

void
Daemon::dispatchLine(const EmitFn &emit, const CancelToken *session,
                     const std::string &line, bool oversize)
{
    if (oversize)
        emit(errorEvent("", oversizeMessage(options_.maxLineBytes)));
    else
        handleRequest(line, emit, session);
}

void
Daemon::serveStream(std::istream &in, std::ostream &out)
{
    const EmitFn emit = [&out](const std::string &line) {
        out << line << '\n';
        out.flush();
    };
    const auto dispatch = [&](std::string &&line, bool oversize) {
        dispatchLine(emit, nullptr, line, oversize);
    };
    LineFramer framer(options_.maxLineBytes);
    char c;
    while (in.get(c))
        framer.feed(&c, 1, dispatch);
    framer.finish(dispatch);
}

void
Daemon::session(SessionSlot &slot)
{
    const int fd = slot.fd;
    const EmitFn emit = [fd, &slot](const std::string &line) {
        // A failed send means the client is gone: cancel its plan so
        // in-flight work stops instead of simulating for nobody.
        if (!writeAll(fd, line + "\n"))
            slot.token.cancel("client disconnected mid-stream");
    };
    const auto dispatch = [&](std::string &&line, bool oversize) {
        dispatchLine(emit, &slot.token, line, oversize);
    };

    LineFramer framer(options_.maxLineBytes);
    char chunk[4096];
    for (;;) {
        // The poll timeout doubles as the drain tick: between
        // requests a session notices draining_ within ~100 ms and
        // closes instead of waiting for the client to hang up.
        if (draining_.load() || slot.token.cancelled())
            break;
        pollfd p = {fd, POLLIN, 0};
        const int rc = ::poll(&p, 1, 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            break;
        }
        if (n == 0) {
            framer.finish(dispatch);
            break;
        }
        framer.feed(chunk, static_cast<std::size_t>(n), dispatch);
    }
    ::close(fd);
    slot.done.store(true);
    const char byte = 'r';
    [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
}

int
Daemon::serve()
{
    if (options_.socketPath.empty())
        invalid("sacsimd", "no socket path configured");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        invalid(options_.socketPath, "socket path too long (max ",
                sizeof(addr.sun_path) - 1, " bytes)");
    }
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0)
        invalid(options_.socketPath, "socket(): ", std::strerror(errno));
    ::unlink(options_.socketPath.c_str());
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listener);
        invalid(options_.socketPath, "bind(): ", std::strerror(err));
    }
    if (::listen(listener, 8) != 0) {
        const int err = errno;
        ::close(listener);
        invalid(options_.socketPath, "listen(): ", std::strerror(err));
    }

    draining_.store(false);
    signalWakeFd.store(wake_[1]);

    std::vector<std::unique_ptr<SessionSlot>> slots;
    const auto reap = [&slots] {
        for (auto it = slots.begin(); it != slots.end();) {
            if ((*it)->done.load()) {
                (*it)->thread.join();
                it = slots.erase(it);
            } else {
                ++it;
            }
        }
    };

    bool shutdown = false;
    unsigned served = 0;
    while (!shutdown &&
           (options_.maxSessions == 0 || served < options_.maxSessions)) {
        pollfd fds[2] = {{listener, POLLIN, 0}, {wake_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents & POLLIN) {
            shutdown = drainWakePipe();
            reap();
            if (shutdown)
                break;
        }
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            break;
        }
        reap();
        if (options_.connections > 0 &&
            slots.size() >= options_.connections) {
            // Refuse over-capacity connections immediately — and
            // politely: one retryable error event, then close. A
            // refusal does not count against --max-sessions.
            writeAll(fd,
                     errorEvent("",
                                "daemon is at its concurrent-session "
                                "limit; resubmit after a backoff",
                                true) +
                         "\n");
            ::close(fd);
            continue;
        }
        ++served;
        auto slot = std::make_unique<SessionSlot>();
        slot->fd = fd;
        slot->token.linkParent(&drainToken_);
        SessionSlot *raw = slot.get();
        slot->thread = std::thread([this, raw] { session(*raw); });
        slots.push_back(std::move(slot));
    }

    // Drain: no new sessions; in-flight plans get drainMs of grace,
    // then their cancellation chain fires. Sessions notice
    // draining_ between requests and close themselves.
    ::close(listener);
    draining_.store(true);
    const auto armDrainDeadline = [this] {
        if (options_.drainMs == 0) {
            drainToken_.cancel("daemon shutting down");
        } else {
            drainToken_.setDeadlineAfterMs(
                static_cast<double>(options_.drainMs),
                "daemon drain deadline exceeded");
        }
    };
    if (shutdown)
        armDrainDeadline();
    while (true) {
        reap();
        if (slots.empty())
            break;
        // Stay signal-responsive while waiting: a SIGTERM arriving
        // after --max-sessions was reached still cancels the
        // remaining in-flight plans through the drain token.
        pollfd p = {wake_[0], POLLIN, 0};
        const int rc = ::poll(&p, 1, 100);
        if (rc > 0 && (p.revents & POLLIN) && drainWakePipe() &&
            !shutdown) {
            shutdown = true;
            armDrainDeadline();
        }
    }

    pruneCache();
    ::unlink(options_.socketPath.c_str());
    signalWakeFd.store(-1);
    return 0;
}

} // namespace sac::service
