#include "driver/service/store.hh"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/format.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace tdm::driver::service {

namespace {

constexpr const char *kMagic = "tdmstore";
constexpr unsigned kFormatVersion = 1;

/** The first line of every blob of @p schema_version. */
std::string
headerLine(unsigned schema_version)
{
    return std::string(kMagic) + ' ' + std::to_string(kFormatVersion)
         + " schema " + std::to_string(schema_version);
}

/** The whole blob: header, payload, the payload's checksum, end. */
std::string
renderBlob(const std::string &key, const RunSummary &summary,
           unsigned schema_version)
{
    // The payload (everything between the header and the checksum
    // line) is built separately so the checksum can cover it. 17
    // significant digits parse back bit-exactly, and "inf"/"nan"
    // survive the round-trip through report::parseReal.
    report::Text payload;
    payload << "key " << key << '\n';
    const sim::MetricSet &m = summary.metrics();
    payload << "metrics " << m.size() << '\n';
    for (const auto &[k, v] : m.entries())
        payload << "m " << k << ' ' << report::Real{v} << '\n';

    const std::string &body = payload.str();
    return headerLine(schema_version) + '\n' + body + "sum "
         + campaign::digestOfKey(body) + "\nend\n";
}

/** The next line of @p rest, without its '\n' (as getline reads it);
 *  false once @p rest is used up. */
bool
nextLine(std::string_view &rest, std::string_view &line)
{
    if (rest.empty())
        return false;
    const std::size_t eol = rest.find('\n');
    line = rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size()
                                                     : eol + 1);
    return true;
}

/** Parse one whole blob held in @p bytes (see readSummaryBlob). Bytes
 *  after the end line are ignored. */
bool
parseBlob(std::string_view bytes, std::string &key_out,
          RunSummary &summary_out, unsigned schema_version)
{
    std::string_view rest = bytes, line;
    if (!nextLine(rest, line) || line != headerLine(schema_version))
        return false;
    // The checksum covers every line from the key to the last metric.
    const char *const payload = rest.data();

    // key <key>: the remainder of the line, spaces included.
    if (!nextLine(rest, line) || !line.starts_with("key ")
        || line.size() == 4)
        return false;
    const std::string_view key = line.substr(4);

    // metrics <count>
    std::size_t count = 0;
    if (!nextLine(rest, line) || !line.starts_with("metrics "))
        return false;
    const char *const end = line.data() + line.size();
    if (const std::from_chars_result r =
            std::from_chars(line.data() + 8, end, count);
        r.ec != std::errc() || r.ptr != end)
        return false;

    // m <name> <value>, one per metric, in key order: the name ends at
    // the first whitespace; the value is the whole rest of the line.
    sim::MetricSet metrics;
    for (std::size_t i = 0; i < count; ++i) {
        if (!nextLine(rest, line) || !line.starts_with("m "))
            return false;
        const std::size_t nameEnd = line.find_first_of(" \t\v\f\r", 2);
        double v = 0.0;
        if (nameEnd == 2 || nameEnd == std::string_view::npos
            || !report::parseReal(line.substr(nameEnd + 1), v))
            return false;
        metrics.append(line.substr(2, nameEnd - 2), v);
    }

    const std::string_view body(
        payload, static_cast<std::size_t>(rest.data() - payload));
    if (!nextLine(rest, line) || !line.starts_with("sum ")
        || line.substr(4) != campaign::digestOfKey(body)
        || !nextLine(rest, line) || line != "end")
        return false;
    std::optional<RunSummary> s = summaryOf(std::move(metrics));
    if (!s)
        return false;
    key_out = key;
    summary_out = *std::move(s);
    return true;
}

/** All of the file at @p path; false when it cannot be read. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
    if (size < 0)
        return false;
    out.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    return static_cast<bool>(
        in.read(out.data(), static_cast<std::streamsize>(size)));
}

} // namespace

void
writeSummaryBlob(std::ostream &os, const std::string &key,
                 const RunSummary &summary, unsigned schema_version)
{
    const std::string blob = renderBlob(key, summary, schema_version);
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

bool
readSummaryBlob(std::istream &is, std::string &key_out,
                RunSummary &summary_out, unsigned schema_version)
{
    const std::string bytes(std::istreambuf_iterator<char>(is), {});
    return parseBlob(bytes, key_out, summary_out, schema_version);
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
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (index_.find(digest) == index_.end()) {
            ++counts_.misses;
            return std::nullopt;
        }
    }
    // Read and parse outside the lock, as loadByDigest does: blobs are
    // only ever created whole (atomic rename), so concurrent fetches
    // and publishes see absent or complete files.
    std::string bytes, storedKey;
    RunSummary summary;
    const bool intact = readFile(pathForDigest(digest), bytes)
                     && parseBlob(bytes, storedKey, summary,
                                  schemaVersion_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!intact) {
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
    const std::string bytes = renderBlob(key, summary, schemaVersion_);
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
    // No lock: blobs are only ever created whole (atomic rename), so
    // reading outside the index mutex sees absent or complete files.
    std::string bytes;
    return readRawBlob(digest, bytes)
        && parseBlob(bytes, key_out, summary_out, schemaVersion_);
}

bool
ResultStore::readRawBlob(const std::string &digest,
                         std::string &bytes_out) const
{
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef")
            != std::string::npos)
        return false;
    return readFile(pathForDigest(digest), bytes_out);
}

} // namespace tdm::driver::service

