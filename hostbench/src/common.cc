#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/grid.hh"

namespace hostbench {

namespace spec = tdm::driver::spec;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
             + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

volatile std::uint64_t gCalibrationSink = 0;

/** One random cycle through 2^20 slots: a dependent-load chain. */
const std::vector<std::uint32_t> &
calibrationChain()
{
    static const std::vector<std::uint32_t> next = [] {
        const std::uint32_t n = 1u << 18;
        std::vector<std::uint32_t> order(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = n - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        std::vector<std::uint32_t> nxt(n);
        for (std::uint32_t i = 0; i < n; ++i)
            nxt[order[i]] = order[(i + 1) % n];
        return nxt;
    }();
    return next;
}

double
calibrationOnce()
{
    const std::vector<std::uint32_t> &next = calibrationChain();
    const Clock::time_point t0 = Clock::now();
    std::uint32_t p = 0;
    for (int i = 0; i < (1 << 19); ++i)
        p = next[p];
    std::uint64_t x = 88172645463325252ull;
    auto step = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<std::uint64_t> heap;
    for (int i = 0; i < 32; ++i)
        heap.push_back(step() & 0xffffff);
    const std::greater<std::uint64_t> later;
    std::make_heap(heap.begin(), heap.end(), later);
    std::uint64_t acc = 0;
    for (int i = 0; i < (1 << 19); ++i) {
        std::pop_heap(heap.begin(), heap.end(), later);
        acc += heap.back();
        heap.back() += step() & 0xffff;
        std::push_heap(heap.begin(), heap.end(), later);
    }
    gCalibrationSink = p + acc;
    return secondsSince(t0);
}

} // namespace

double
calibrationSeconds()
{
    return std::min({calibrationOnce(), calibrationOnce(),
                     calibrationOnce()});
}

// ---- workloads -------------------------------------------------------

namespace {

std::string
seedValue(std::uint64_t seed)
{
    return std::to_string(seed);
}

/** The builtin fig13 grid: 9 workloads x {sw, carbon, tss, tdm x 5
 *  schedulers} on the paper's 32-core machine. */
campaign::Campaign
paper32(std::uint64_t seed)
{
    campaign::Campaign c = campaign::makeCampaign("fig13");
    c.name = "paper32";
    for (tdm::driver::SweepPoint &p : c.points)
        spec::applyKey(p.exp, "workload.seed", seedValue(seed));
    return c;
}

/** fig13-shaped points at 256 and 1024 cores, fine granularity. */
campaign::Campaign
scale1024(std::uint64_t seed)
{
    return spec::Grid()
        .set("workload.granularity", "4096")
        .set("workload.seed", seedValue(seed))
        .axis("workload", {"cholesky", "histogram"})
        .zip({"machine.cores", "mesh.width", "mesh.height"},
             {{"256", "17", "17"}, {"1024", "33", "33"}})
        .axis("runtime", {"sw", "tdm"})
        .label("{workload}/c{machine.cores}/{runtime}")
        .toCampaign("scale1024", "fig13 shapes at 256 and 1024 cores");
}

/** Memory/power sensitivity sweep: 8 warm groups of 9 points. */
campaign::Campaign
sweepFork(std::uint64_t seed)
{
    return spec::Grid()
        .set("workload.seed", seedValue(seed))
        .zip({"workload", "workload.granularity"},
             {{"cholesky", "4096"},
              {"lu", "0"},
              {"qr", "0"},
              {"streamcluster", "0"}})
        .axis("runtime", {"sw", "tdm"})
        .axis("mem.l1_bytes", {"16384", "32768", "65536"})
        .axis("power.active_w", {"0.6", "0.9", "1.2"})
        .label("{workload}/{runtime}/l1_{mem.l1_bytes}/w{power.active_w}")
        .toCampaign("sweep_fork", "L1 size x active watts, forked");
}

unsigned
hostThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"paper32", 1, false, 8, paper32},
        {"scale1024", 1, false, 8, scale1024},
        {"sweep_fork", hostThreads(), true, 4, sweepFork},
    };
    return all;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads())
        names.push_back(w.name);
    return names;
}

// ---- output check ----------------------------------------------------

namespace {

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

} // namespace

std::uint32_t
summaryDigest(const tdm::driver::RunSummary &s)
{
    Fnv f;
    f.u64(s.completed ? 1 : 0);
    f.u64(s.makespan);
    f.u64(s.numTasks);
    for (const auto &[key, value] : s.metrics().entries()) {
        f.bytes(key.data(), key.size());
        f.u64(std::bit_cast<std::uint64_t>(value));
    }
    return static_cast<std::uint32_t>(f.h ^ (f.h >> 32));
}

PinTable
loadPins(const std::string &path)
{
    PinTable pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string workload, hex;
        std::uint64_t seed = 0;
        std::size_t n = 0;
        if (!(is >> workload >> seed >> n >> hex) || hex.size() != 8 * n)
            continue;
        std::vector<std::uint32_t> &d = pins[{workload, seed}];
        for (std::size_t i = 0; i < n; ++i)
            d.push_back(static_cast<std::uint32_t>(
                std::stoul(hex.substr(8 * i, 8), nullptr, 16)));
    }
    return pins;
}

std::string
formatPinLine(const std::string &workload, std::uint64_t seed,
              const std::vector<std::uint32_t> &digests)
{
    std::string out = workload + " " + std::to_string(seed) + " "
                    + std::to_string(digests.size()) + " ";
    char buf[9];
    for (std::uint32_t d : digests) {
        std::snprintf(buf, sizeof buf, "%08x", d);
        out += buf;
    }
    return out;
}

// ---- spans -----------------------------------------------------------

SpanLog::SpanLog(unsigned tracks, Clock::time_point epoch)
    : epoch_(epoch), tracks_(tracks), trackNames_(tracks)
{}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
}

std::size_t
SpanLog::open(unsigned track, const std::string &name,
              const std::string &point, std::uint64_t parent)
{
    Span s;
    s.name = name;
    s.point = point;
    s.id = nextId_.fetch_add(1);
    s.parent = parent;
    s.track = track;
    s.startUs = nowUs();
    tracks_[track].push_back(std::move(s));
    return tracks_[track].size() - 1;
}

void
SpanLog::add(unsigned track, const std::string &name,
             const std::string &point, std::uint64_t parent,
             Clock::time_point start, Clock::time_point end)
{
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    };
    const std::size_t i = open(track, name, point, parent);
    tracks_[track][i].startUs = us(start);
    tracks_[track][i].endUs = us(end);
}

double
SpanLog::close(unsigned track, std::size_t index)
{
    Span &s = tracks_[track][index];
    s.endUs = nowUs();
    return s.ms();
}

std::uint64_t
SpanLog::idOf(unsigned track, std::size_t index) const
{
    return tracks_[track][index].id;
}

void
SpanLog::rename(unsigned track, std::size_t index, const std::string &name)
{
    tracks_[track][index].name = name;
}

void
SpanLog::nameTrack(unsigned track, const std::string &name)
{
    trackNames_[track] = name;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    namespace report = tdm::driver::report;
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (unsigned t = 0; t < tracks_.size(); ++t) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << report::jsonEscape(trackNames_[t]) << "\"}}";
    }
    for (const std::vector<Span> &track : tracks_) {
        for (const Span &s : track) {
            sep();
            os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
               << ",\"name\":\"" << report::jsonEscape(s.name)
               << "\",\"ts\":";
            report::jsonNumber(os, s.startUs);
            os << ",\"dur\":";
            report::jsonNumber(os, s.endUs - s.startUs);
            os << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
               << s.parent << ",\"point\":\""
               << report::jsonEscape(s.point) << "\"}}";
        }
    }
    os << "\n]}\n";
}

} // namespace hostbench
