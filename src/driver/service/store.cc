#include "driver/service/store.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "driver/campaign/fingerprint.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace tdm::driver::service {

namespace {

constexpr const char *kMagic = "tdmstore";
constexpr unsigned kFormatVersion = 1;

/** Hex digest of a blob payload (everything between header and sum). */
std::string
payloadSum(const std::string &payload)
{
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64,
                  campaign::fnv1a64(payload));
    return digest;
}

} // namespace

void
writeSummaryBlob(std::ostream &os, const std::string &key,
                 const RunSummary &summary, unsigned schema_version)
{
    // The payload (everything between the header and the checksum
    // line) is built separately so the checksum can cover it. 17
    // significant digits parse back bit-exactly, and "inf"/"nan"
    // survive the round-trip through strtod.
    std::ostringstream payload;
    payload << std::setprecision(17);
    payload << "key " << key << '\n';
    const sim::MetricSet &m = summary.metrics();
    payload << "metrics " << m.size() << '\n';
    for (const auto &[k, v] : m.entries())
        payload << "m " << k << ' ' << v << '\n';

    const std::string body = payload.str();
    os << kMagic << ' ' << kFormatVersion << " schema "
       << schema_version << '\n'
       << body << "sum " << payloadSum(body) << '\n'
       << "end\n";
}

bool
readSummaryBlob(std::istream &is, std::string &key_out,
                RunSummary &summary_out, unsigned schema_version)
{
    std::string line;
    if (!std::getline(is, line))
        return false;
    {
        std::istringstream header(line);
        std::string magic, schemaWord;
        unsigned format = 0, schema = 0;
        if (!(header >> magic >> format >> schemaWord >> schema) ||
            magic != kMagic || format != kFormatVersion ||
            schemaWord != "schema" || schema != schema_version)
            return false;
    }

    // key <key>: the remainder of the line, spaces included.
    std::string body;
    if (!std::getline(is, line) || line.rfind("key ", 0) != 0 ||
        line.size() == 4)
        return false;
    const std::string key = line.substr(4);
    body += line + '\n';

    std::size_t count = 0;
    {
        if (!std::getline(is, line))
            return false;
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag >> count) || tag != "metrics")
            return false;
        body += line + '\n';
    }

    sim::MetricSet metrics;
    for (std::size_t i = 0; i < count; ++i) {
        if (!std::getline(is, line))
            return false;
        body += line + '\n';
        std::istringstream ls(line);
        std::string tag, name, value;
        if (!(ls >> tag >> name >> value) || tag != "m")
            return false;
        char *endp = nullptr;
        const double v = std::strtod(value.c_str(), &endp);
        if (endp == value.c_str() || *endp)
            return false;
        metrics.set(name, v);
    }

    if (!std::getline(is, line) || line != "sum " + payloadSum(body) ||
        !std::getline(is, line) || line != "end")
        return false;
    std::optional<RunSummary> s = summaryOf(std::move(metrics));
    if (!s)
        return false;
    key_out = key;
    summary_out = *std::move(s);
    return true;
}

ResultStore::ResultStore(const std::string &dir,
                         unsigned schema_version)
    : dir_(dir), schemaVersion_(schema_version)
{
    std::string vdir = "v";
    vdir += std::to_string(schemaVersion_);
    versionDir_ = (fs::path(dir_) / vdir).string();
    std::error_code ec;
    fs::create_directories(versionDir_, ec);
    if (ec || !fs::is_directory(versionDir_))
        throw std::runtime_error("result store: cannot create '" +
                                 versionDir_ + "': " + ec.message());
    scanIndex();
}

void
ResultStore::scanIndex()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    for (fs::directory_iterator it(versionDir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        // <16 hex>.result — anything else (temp files, strays) is
        // ignored.
        if (name.size() != 23 ||
            name.compare(16, std::string::npos, ".result") != 0)
            continue;
        if (name.find_first_not_of("0123456789abcdef") != 16)
            continue;
        std::error_code sizeEc;
        const std::uintmax_t size = it->file_size(sizeEc);
        const std::uint64_t bytes =
            sizeEc ? 0 : static_cast<std::uint64_t>(size);
        index_.emplace(name.substr(0, 16), bytes);
        counts_.bytes += bytes;
    }
}

std::string
ResultStore::pathForKey(const std::string &key) const
{
    return pathForDigest(campaign::digestOfKey(key));
}

std::string
ResultStore::pathForDigest(const std::string &digest) const
{
    return (fs::path(versionDir_) / (digest + ".result")).string();
}

std::optional<RunSummary>
ResultStore::fetch(const std::string &key)
{
    const std::string digest = campaign::digestOfKey(key);
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.find(digest) == index_.end()) {
        ++counts_.misses;
        return std::nullopt;
    }
    std::ifstream in(fs::path(versionDir_) / (digest + ".result"));
    std::string storedKey;
    RunSummary summary;
    if (!in || !readSummaryBlob(in, storedKey, summary,
                                schemaVersion_)) {
        // Unreadable or damaged blob: drop it from the index and treat
        // as a miss — the engine re-simulates and re-publishes.
        ++counts_.corrupt;
        ++counts_.misses;
        if (auto it = index_.find(digest); it != index_.end()) {
            counts_.bytes -= it->second;
            index_.erase(it);
        }
        sim::warn("result store: corrupt blob for ", digest,
                  " ignored (will re-simulate)");
        return std::nullopt;
    }
    if (storedKey != key) {
        // Digest collision with a different spec: a miss, not an
        // error. (The blob itself is intact, so keep it indexed.)
        ++counts_.misses;
        return std::nullopt;
    }
    ++counts_.hits;
    return summary;
}

void
ResultStore::publish(const std::string &key, const RunSummary &summary)
{
    const std::string digest = campaign::digestOfKey(key);
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(digest))
        return; // already persisted (results are pure in their key)

    // Unique temp name in the same directory, then an atomic rename:
    // concurrent readers only ever see absent or complete blobs.
    const std::string tmpName = digest + ".tmp." +
                                std::to_string(::getpid()) + "." +
                                std::to_string(tmpSeq_++);
    const fs::path tmpPath = fs::path(versionDir_) / tmpName;
    const fs::path finalPath =
        fs::path(versionDir_) / (digest + ".result");
    // Render first so the on-disk byte size is known for the stats
    // accounting (and a serialization problem never leaves a torn
    // temp file).
    std::ostringstream blob;
    writeSummaryBlob(blob, key, summary, schemaVersion_);
    const std::string bytes = blob.str();
    {
        std::ofstream out(tmpPath,
                          std::ios::binary | std::ios::trunc);
        if (out)
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            sim::warn("result store: cannot write ",
                      tmpPath.string(), " (entry dropped)");
            std::error_code ec;
            fs::remove(tmpPath, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmpPath, finalPath, ec);
    if (ec) {
        sim::warn("result store: rename to ", finalPath.string(),
                  " failed: ", ec.message(), " (entry dropped)");
        fs::remove(tmpPath, ec);
        return;
    }
    // The early count() check makes a duplicate unlikely, but another
    // writer sharing this directory could have indexed the digest via
    // a rescan — never double-count its bytes.
    if (index_.emplace(digest, bytes.size()).second)
        counts_.bytes += bytes.size();
    ++counts_.stores;
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StoreStats s = counts_;
    s.blobs = index_.size();
    return s;
}

std::vector<std::pair<std::string, std::uint64_t>>
ResultStore::list() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {index_.begin(), index_.end()};
}

bool
ResultStore::loadByDigest(const std::string &digest,
                          std::string &key_out,
                          RunSummary &summary_out) const
{
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef")
            != std::string::npos)
        return false;
    // No lock: blobs are only ever created whole (atomic rename), so
    // reading outside the index mutex sees absent or complete files.
    std::ifstream in(pathForDigest(digest), std::ios::binary);
    if (!in)
        return false;
    return readSummaryBlob(in, key_out, summary_out, schemaVersion_);
}

bool
ResultStore::readRawBlob(const std::string &digest,
                         std::string &bytes_out) const
{
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef")
            != std::string::npos)
        return false;
    std::ifstream in(pathForDigest(digest), std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    bytes_out = os.str();
    return true;
}

} // namespace tdm::driver::service

