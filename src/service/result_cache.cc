#include "service/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/result_io.hh"

namespace sac::service {

namespace fs = std::filesystem;

namespace {

const char *const cacheSchema = "sac.cache.v1";

std::string
hexHashName(std::uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(buf) + ".json";
}

std::string
hashName(const ExperimentJob &job)
{
    return hexHashName(contentHash(job));
}

/** True for "<hex>.json" entry files; temporaries ("*.tmp.*") and
 *  the lockfile never match. */
bool
isEntryName(const std::string &name)
{
    return name.size() > 5 &&
           name.compare(name.size() - 5, 5, ".json") == 0 &&
           name.find(".tmp.") == std::string::npos;
}

/** The model fingerprint a canonical key carries, "" when none. */
std::string_view
keyModel(std::string_view key)
{
    const std::string_view field = ";model=";
    const std::size_t at = key.find(field);
    if (at == std::string_view::npos)
        return {};
    const std::size_t begin = at + field.size();
    return key.substr(begin, key.find(';', begin) - begin);
}

/** canaryDigest as canonicalJobKey() prints it. */
const std::string &
currentModel()
{
    static const std::string model = [] {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(canaryDigest));
        return std::string(buf);
    }();
    return model;
}

/** What one entry file is to this build. */
enum class EntryState
{
    Missing,  //!< no file to open
    Current,  //!< intact, this plan schema and model
    Stale,    //!< intact, another plan schema or model
    Rejected, //!< torn, corrupt or wrong-schema
};

/** One entry file as readEntry() found it. */
struct StoredEntry
{
    EntryState state = EntryState::Missing;
    /** Why the entry is stale or rejected. */
    std::string why;
    /** The canonical key the entry stores (Current and Stale). */
    std::string key;
    RunRecord record;
};

/**
 * Reads and checks one entry: the sac.cache.v1 schema, then "plan",
 * "key" and "record". An intact entry of another plan schema or model
 * is stale: no lookup of this build can reach it.
 */
StoredEntry
readEntry(const fs::path &path)
{
    StoredEntry e;
    std::ifstream is(path);
    if (!is)
        return e;
    std::ostringstream buf;
    buf << is.rdbuf();
    e.state = EntryState::Rejected;
    json::Value doc;
    try {
        doc = json::parse(buf.str());
    } catch (const std::exception &err) {
        e.why = std::string("torn or corrupt: ") + err.what();
        return e;
    }
    try {
        if (!doc.has("schema") ||
            doc.at("schema").asString() != cacheSchema) {
            throw FatalError("wrong cache entry schema");
        }
        if (!doc.has("plan") || !doc.has("key") || !doc.has("record"))
            throw FatalError("missing field");
        e.record = result_io::recordFromValue(doc.at("record"));
        e.key = doc.at("key").asString();
        if (doc.at("plan").asString() != planSchemaVersion)
            e.why = "stale plan schema";
        else if (keyModel(e.key) != currentModel())
            e.why = "stale model";
    } catch (const std::exception &err) {
        e.why = err.what();
        return e;
    }
    e.state = e.why.empty() ? EntryState::Current : EntryState::Stale;
    return e;
}

/**
 * What verify() and prune() make of one listed entry: readEntry()
 * with the filename checked against the hash of the stored key. A
 * file that vanished or cannot be opened counts as rejected.
 */
EntryState
verifiedState(const fs::path &path)
{
    const StoredEntry e = readEntry(path);
    if (e.state == EntryState::Missing)
        return EntryState::Rejected;
    if (e.state != EntryState::Rejected &&
        hexHashName(contentHashOfKey(e.key)) != path.filename().string()) {
        return EntryState::Rejected;
    }
    return e.state;
}

/** True for store() temporaries left behind by a crashed writer. */
bool
isTmpName(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

/** RAII advisory lock: flock(LOCK_EX | LOCK_NB) on @p path. The
 *  kernel releases flocks when the holder dies, so a SIGKILLed
 *  pruner never leaves the lock stuck — the crash-safety property a
 *  lockfile created with O_EXCL could not give. */
class PruneLock
{
  public:
    explicit PruneLock(const std::string &path)
        : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~PruneLock()
    {
        if (fd_ >= 0)
            ::close(fd_); // closing drops the flock
    }

    bool held() const { return fd_ >= 0; }

  private:
    int fd_;
};

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        invalid(dir_, "cannot create cache directory");
}

std::string
ResultCache::entryPath(const ExperimentJob &job) const
{
    return (fs::path(dir_) / hashName(job)).string();
}

std::optional<RunRecord>
ResultCache::lookup(const ExperimentJob &job)
{
    const std::string path = entryPath(job);
    StoredEntry e = readEntry(path);
    if (e.state == EntryState::Missing) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }
    if (e.state == EntryState::Current && e.key != canonicalJobKey(job)) {
        e.state = EntryState::Rejected;
        e.why = "canonical key mismatch";
    }

    // Tolerant read: anything unusable — a torn write from a crashed
    // process, a corrupted byte, a stale schema, a hash collision —
    // is named on stderr and is a miss; the job re-simulates and the
    // store overwrites it.
    if (e.state != EntryState::Current) {
        warn("result cache: rejected '", path, "' (", e.why,
             "); re-simulating");
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rejected;
        ++stats_.misses;
        return std::nullopt;
    }
    // Touch the entry so prune()'s mtime order is LRU, not FIFO. Best
    // effort: a concurrent prune may have unlinked the file.
    std::error_code touch_ec;
    fs::last_write_time(path, std::filesystem::file_time_type::clock::now(),
                        touch_ec);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return std::move(e.record);
}

void
ResultCache::store(const ExperimentJob &job, const RunRecord &record)
{
    if (record.result.status != RunStatus::Ok)
        return;

    json::Builder doc('{');
    doc.field("schema", json::escape(cacheSchema))
        .field("plan", json::escape(planSchemaVersion))
        .field("key", json::escape(canonicalJobKey(job)))
        .field("record", result_io::recordToJson(record));

    const std::string path = entryPath(job);
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long long>(::getpid())) +
        "." + std::to_string(tmpSerial_.fetch_add(1));
    {
        std::ofstream os(tmp);
        if (!os) {
            warn("result cache: cannot write '", tmp, "'");
            return;
        }
        os << doc.close('}') << "\n";
        os.flush();
        if (!os) {
            warn("result cache: short write to '", tmp, "'");
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("result cache: rename to '", path, "' failed: ",
             ec.message());
        fs::remove(tmp, ec);
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ResultCache::setBudget(const Budget &budget)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = budget;
}

ResultCache::Budget
ResultCache::budget() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_;
}

std::string
ResultCache::pruneLockPath() const
{
    return (fs::path(dir_) / ".prune.lock").string();
}

ResultCache::PruneReport
ResultCache::prune()
{
    return prune(budget());
}

ResultCache::PruneReport
ResultCache::prune(const Budget &budget, bool remove_stale)
{
    PruneReport report;
    if (!budget.any() && !remove_stale)
        return report;

    // One pruner at a time, across processes. Skipping on contention
    // is correct: whoever holds the lock is enforcing the same
    // budget, and this pass's caller retries after its next plan.
    PruneLock lock(pruneLockPath());
    if (!lock.held())
        return report;
    report.ran = true;

    struct Entry
    {
        fs::path path;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;

    std::error_code ec;
    // Writer temporaries older than this are from dead processes —
    // live stores rename within milliseconds of creating theirs.
    const auto stale_before =
        fs::file_time_type::clock::now() - std::chrono::minutes(15);
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path path = it->path();
        const std::string name = path.filename().string();
        std::error_code stat_ec;
        if (!it->is_regular_file(stat_ec) || stat_ec)
            continue;
        const auto mtime = fs::last_write_time(path, stat_ec);
        if (stat_ec)
            continue; // raced with a concurrent unlink
        if (isTmpName(name)) {
            if (mtime < stale_before && fs::remove(path, stat_ec))
                ++report.staleTmps;
            continue;
        }
        if (!isEntryName(name))
            continue;
        if (remove_stale && verifiedState(path) == EntryState::Stale) {
            if (fs::remove(path, stat_ec))
                ++report.staleEntries;
            continue;
        }
        const auto bytes = fs::file_size(path, stat_ec);
        if (stat_ec)
            continue;
        entries.push_back({path, bytes, mtime});
    }

    report.scannedEntries = entries.size();
    for (const Entry &e : entries)
        report.scannedBytes += e.bytes;

    const auto over = [&](std::uint64_t n, std::uint64_t bytes) {
        return (budget.maxEntries > 0 && n > budget.maxEntries) ||
               (budget.maxBytes > 0 && bytes > budget.maxBytes);
    };
    if (!over(entries.size(), report.scannedBytes))
        return report;

    // Oldest mtime first. Every removal is a single atomic unlink:
    // there is no moment, SIGKILL included, at which a reader can
    // observe a partial entry — only "present" or "gone".
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    std::uint64_t live = entries.size();
    std::uint64_t liveBytes = report.scannedBytes;
    for (const Entry &e : entries) {
        if (!over(live, liveBytes))
            break;
        std::error_code rm_ec;
        if (fs::remove(e.path, rm_ec)) {
            ++report.removedEntries;
            report.removedBytes += e.bytes;
        }
        // Count a raced-away entry as gone either way: a concurrent
        // store replacing it bumped its mtime to "newest", so
        // re-evaluating it would be wrong.
        --live;
        liveBytes -= e.bytes;
    }
    return report;
}

ResultCache::VerifyReport
ResultCache::verify() const
{
    VerifyReport report;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path path = it->path();
        const std::string name = path.filename().string();
        std::error_code stat_ec;
        if (!it->is_regular_file(stat_ec) || stat_ec ||
            !isEntryName(name)) {
            continue;
        }
        ++report.entries;
        const auto bytes = fs::file_size(path, stat_ec);
        if (!stat_ec)
            report.bytes += bytes;

        const EntryState state = verifiedState(path);
        report.stale += state == EntryState::Stale;
        report.rejected += state == EntryState::Rejected;
    }
    return report;
}

} // namespace sac::service
