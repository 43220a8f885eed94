/**
 * @file
 * sacsimd — the SAC experiment daemon.
 *
 * Listens on a local unix socket for sac.sweep.v1 plans (one
 * newline-delimited JSON request per line), serves up to
 * --connections client sessions at once, runs each plan on a
 * fault-isolated ExperimentEngine of --jobs workers, and streams
 * sac.sweep-result.v1 record events back as jobs complete — in plan
 * order, flushed per line. With --cache DIR every completed job is
 * memoized in a persistent content-addressed store, so resubmitting a
 * plan (same session or months later) replays byte-identical results
 * without simulating anything; --cache-max-bytes/--cache-max-entries
 * bound the store with crash-safe LRU pruning.
 *
 * Plans may carry a "deadline_ms" budget (and --max-plan-wall-ms caps
 * every plan daemon-side); expired plans finish as timed_out records.
 * SIGTERM/SIGINT drain gracefully: in-flight plans get --drain-ms of
 * grace, then cancel; the daemon exits 0 with the cache intact.
 *
 *   sacsimd --socket /tmp/sacsimd.sock --cache ~/.cache/sacsim --jobs 4
 *   sacsimd --stdio --cache cache.d       # one session over stdio
 *   sacsimd --cache cache.d --cache-max-entries 1000 --prune-only
 *
 * Try it:
 *
 *   echo '{"schema":"sac.sweep.v1","id":"r1","plan":[{"benchmark":
 *   "CFD","org":"all"}]}' | nc -U /tmp/sacsimd.sock
 *
 * See docs/SERVICE.md for the protocol, concurrency model and cache
 * layout.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cli.hh"
#include "service/daemon.hh"

namespace {

using namespace sac;
using cli::number;

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: sacsimd [options]\n"
        "  --socket PATH          listen on a unix socket at PATH\n"
        "  --stdio                serve one session on stdin/stdout\n"
        "                         instead of a socket\n"
        "  --cache DIR            persist results in the\n"
        "                         content-addressed cache at DIR\n"
        "  --jobs N               worker threads per plan\n"
        "                         (0 = all hardware threads, "
        "default 1)\n"
        "  --connections N        max simultaneous client sessions\n"
        "                         (0 = unbounded, default 4)\n"
        "  --max-sessions N       exit after serving N sessions\n"
        "                         (0 = serve forever, default)\n"
        "  --plan-queue N         plans allowed to wait behind the\n"
        "                         running one (default 8); overflow\n"
        "                         gets a retryable error event\n"
        "  --max-plan-wall-ms MS  cap every plan's wall clock; jobs\n"
        "                         past it finish as timed_out (0 =\n"
        "                         no cap, default)\n"
        "  --drain-ms MS          grace for in-flight plans on\n"
        "                         SIGTERM/SIGINT before they are\n"
        "                         cancelled (default 5000)\n"
        "  --max-line-bytes N     longest accepted request line\n"
        "                         (default 1048576)\n"
        "  --cache-max-bytes N    prune the cache to N bytes after\n"
        "                         each plan (0 = unbounded, default)\n"
        "  --cache-max-entries N  prune the cache to N entries after\n"
        "                         each plan (0 = unbounded, default)\n"
        "  --prune-only           remove stale entries (an old plan\n"
        "                         schema or model), prune the cache\n"
        "                         to budget, report, and exit\n"
        "                         (maintenance mode)\n"
        "  --verify-cache         integrity-scan the cache, count\n"
        "                         stale entries, and exit nonzero if\n"
        "                         any entry is rejected\n";
    std::exit(code);
}

int
pruneOnly(const service::DaemonOptions &options)
{
    if (options.cacheDir.empty()) {
        std::cerr << "sacsimd: --prune-only needs --cache DIR\n";
        return 1;
    }
    service::ResultCache cache(options.cacheDir);
    const auto report =
        cache.prune(options.cacheBudget, /*remove_stale=*/true);
    if (!report.ran) {
        std::cout << "prune skipped (another pruner holds the lock)\n";
        return 0;
    }
    std::cout << "removed " << report.staleEntries
              << " stale entries, pruned " << report.removedEntries
              << " of " << report.scannedEntries << " entries ("
              << report.removedBytes << " of " << report.scannedBytes
              << " bytes), swept " << report.staleTmps
              << " stale temporaries\n";
    return 0;
}

int
verifyCache(const service::DaemonOptions &options)
{
    if (options.cacheDir.empty()) {
        std::cerr << "sacsimd: --verify-cache needs --cache DIR\n";
        return 1;
    }
    service::ResultCache cache(options.cacheDir);
    const auto report = cache.verify();
    std::cout << report.entries << " entries, " << report.bytes
              << " bytes, " << report.rejected << " rejected, "
              << report.stale << " stale\n";
    return report.rejected == 0 ? 0 : 1;
}

int
run(int argc, char **argv)
{
    service::DaemonOptions options;
    bool stdio = false;
    bool pruneMode = false;
    bool verifyMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "sacsimd: missing value for " << arg << "\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            usage(0);
        else if (arg == "--socket")
            options.socketPath = value();
        else if (arg == "--stdio")
            stdio = true;
        else if (arg == "--cache")
            options.cacheDir = value();
        else if (arg == "--jobs")
            options.jobs = number<unsigned>(arg, value());
        else if (arg == "--connections")
            options.connections = number<unsigned>(arg, value());
        else if (arg == "--max-sessions")
            options.maxSessions = number<unsigned>(arg, value());
        else if (arg == "--plan-queue")
            options.planQueue = number<unsigned>(arg, value());
        else if (arg == "--max-plan-wall-ms")
            options.maxPlanWallMs = number<std::uint64_t>(arg, value());
        else if (arg == "--drain-ms")
            options.drainMs = number<std::uint64_t>(arg, value());
        else if (arg == "--max-line-bytes")
            options.maxLineBytes = number<std::size_t>(arg, value());
        else if (arg == "--cache-max-bytes")
            options.cacheBudget.maxBytes = number<std::uint64_t>(arg, value());
        else if (arg == "--cache-max-entries")
            options.cacheBudget.maxEntries =
                number<std::uint64_t>(arg, value());
        else if (arg == "--prune-only")
            pruneMode = true;
        else if (arg == "--verify-cache")
            verifyMode = true;
        else {
            std::cerr << "sacsimd: unknown option '" << arg
                      << "' (try --help)\n";
            return 1;
        }
    }
    if (pruneMode)
        return pruneOnly(options);
    if (verifyMode)
        return verifyCache(options);
    if (!stdio && options.socketPath.empty()) {
        std::cerr << "sacsimd: need --socket PATH or --stdio "
                     "(try --help)\n";
        return 1;
    }

    service::Daemon daemon(std::move(options));
    if (stdio) {
        daemon.serveStream(std::cin, std::cout);
        return 0;
    }
    service::Daemon::installSignalHandlers();
    return daemon.serve();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "sacsimd: " << e.what() << "\n";
        return 1;
    }
}
