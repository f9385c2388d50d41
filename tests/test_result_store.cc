/**
 * @file
 * Persistent result-store tests: blob format round-trips, schema
 * invalidation, corruption tolerance, restart reloads, and concurrent
 * publish/fetch. The store's contract is "absent or correct, never
 * wrong": any damaged blob degrades to a miss and a re-simulation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "driver/service/store.hh"

using namespace tdm;
using namespace tdm::driver;
namespace fs = std::filesystem;

namespace {

/** Fresh per-test directory under the system temp root. */
class StoreDir
{
  public:
    explicit StoreDir(const char *tag)
        : path_(fs::temp_directory_path()
                / (std::string("tdm_store_test_") + tag + "_"
                   + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
    }
    ~StoreDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** A summary exercising awkward values (non-representable doubles)
 *  built the way a run builds one: through its metric tree. */
RunSummary
sampleSummary()
{
    sim::MetricSet m;
    m.set("machine.completed", 1);
    m.set("machine.makespan_ticks", 142451635);
    m.set("machine.time_ms", 0.1 + 0.2); // classic 0.30000000000000004
    m.set("power.energy_j", 1.0 / 3.0);
    m.set("power.edp", 6.02214076e23);
    m.set("power.avg_watts", 9.886387899638404);
    m.set("workload.num_tasks", 120);
    m.set("workload.avg_task_us", 9567.9434499999988);
    m.set("machine.tasks_executed", 120);
    m.set("dmu.accesses", 5844);
    m.set("runtime.hwq.steals", 3);
    m.set("machine.master_creation_fraction", 0.00028830312207622322);
    m.set("dmu.tat.hit_rate", 0.81481481481481477);
    m.set("dmu.tat.hits", 528);
    return *driver::summaryOf(m);
}

const std::string kKey = "machine.cores=8;scheduler=fifo;workload=ch;";

} // namespace

TEST(ResultStoreBlob, RoundTripPreservesEveryField)
{
    const RunSummary in = sampleSummary();
    std::ostringstream os;
    service::writeSummaryBlob(os, kKey, in, 2);

    std::istringstream is(os.str());
    std::string key;
    RunSummary out;
    ASSERT_TRUE(service::readSummaryBlob(is, key, out, 2));
    EXPECT_EQ(key, kKey);
    for (const HeadlineField &f : kHeadlineFields)
        std::visit(
            [&](auto member) {
                EXPECT_EQ(out.*member, in.*member) << f.name; // bit-exact
            },
            f.member);
    EXPECT_EQ(out.machine.metrics.entries(),
              in.machine.metrics.entries());

    // Serialization is a pure function of (key, summary): re-writing
    // the decoded summary yields the identical blob. This is what
    // makes concurrent writers of the same key harmless.
    std::ostringstream os2;
    service::writeSummaryBlob(os2, key, out, 2);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(ResultStoreBlob, WrongSchemaVersionRejected)
{
    std::ostringstream os;
    service::writeSummaryBlob(os, kKey, sampleSummary(), 2);
    std::string key;
    RunSummary out;
    std::istringstream is(os.str());
    EXPECT_FALSE(service::readSummaryBlob(is, key, out, 3));
}

TEST(ResultStoreBlob, TruncatedOrTamperedBlobRejected)
{
    std::ostringstream os;
    service::writeSummaryBlob(os, kKey, sampleSummary(), 2);
    const std::string blob = os.str();

    // Any truncation must fail: there is always a trailing checksum
    // and end marker to lose.
    for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                            blob.size() / 4, blob.size() / 2,
                            blob.size() - 2}) {
        std::istringstream is(blob.substr(0, cut));
        std::string key;
        RunSummary out;
        EXPECT_FALSE(service::readSummaryBlob(is, key, out, 2))
            << "accepted a blob truncated to " << cut << " bytes";
    }

    // Flipping one payload character breaks the checksum.
    std::string tampered = blob;
    const std::size_t pos = tampered.find("makespan");
    ASSERT_NE(pos, std::string::npos);
    tampered[pos] = 'M';
    std::istringstream is(tampered);
    std::string key;
    RunSummary out;
    EXPECT_FALSE(service::readSummaryBlob(is, key, out, 2));

    // Garbage from byte zero.
    std::istringstream garbage("these are not the blobs\nyou seek\n");
    EXPECT_FALSE(service::readSummaryBlob(garbage, key, out, 2));
}

TEST(ResultStoreBlob, HeadlineMetricThatDoesNotFitIsRejected)
{
    // An intact blob whose tree holds a count no summary member can
    // represent is refused, not truncated into a different number.
    for (const double bad : {-1.0, 0.5, 1e300}) {
        RunSummary s = sampleSummary();
        s.machine.metrics.set("runtime.hwq.steals", bad);
        std::ostringstream os;
        service::writeSummaryBlob(os, kKey, s, 3);
        std::istringstream is(os.str());
        std::string key;
        RunSummary out;
        EXPECT_FALSE(service::readSummaryBlob(is, key, out, 3)) << bad;
    }
}

TEST(ResultStore, PublishFetchAndRestartReload)
{
    StoreDir dir("restart");
    const RunSummary in = sampleSummary();
    {
        service::ResultStore store(dir.str());
        EXPECT_EQ(store.stats().blobs, 0u);
        EXPECT_FALSE(store.fetch(kKey).has_value());
        EXPECT_EQ(store.stats().misses, 1u);

        store.publish(kKey, in);
        EXPECT_EQ(store.stats().blobs, 1u);
        EXPECT_EQ(store.stats().stores, 1u);
        auto hit = store.fetch(kKey);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->makespan, in.makespan);
        EXPECT_EQ(hit->timeMs, in.timeMs);

        // Re-publishing an indexed key is a no-op, not a rewrite.
        store.publish(kKey, in);
        EXPECT_EQ(store.stats().stores, 1u);
    }
    // A new instance over the same directory rebuilds the index from
    // the blobs alone.
    service::ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().blobs, 1u);
    auto hit = reopened.fetch(kKey);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->makespan, in.makespan);
    EXPECT_EQ(hit->machine.metrics.entries(),
              in.machine.metrics.entries());
}

TEST(ResultStore, SchemaBumpInvalidatesEverything)
{
    StoreDir dir("schema");
    {
        service::ResultStore v2(dir.str(), 2);
        v2.publish(kKey, sampleSummary());
        EXPECT_EQ(v2.stats().blobs, 1u);
    }
    // A store opened under the next schema sees an empty universe —
    // blobs live in a different version directory by construction.
    service::ResultStore v3(dir.str(), 3);
    EXPECT_EQ(v3.stats().blobs, 0u);
    EXPECT_FALSE(v3.fetch(kKey).has_value());
    // The old generation's blobs are untouched (rollback-safe).
    service::ResultStore v2again(dir.str(), 2);
    EXPECT_EQ(v2again.stats().blobs, 1u);
    EXPECT_TRUE(v2again.fetch(kKey).has_value());
}

TEST(ResultStore, CorruptBlobDegradesToMiss)
{
    StoreDir dir("corrupt");
    service::ResultStore writer(dir.str());
    writer.publish(kKey, sampleSummary());
    const std::string path = writer.pathForKey(kKey);
    ASSERT_TRUE(fs::exists(path));
    {
        std::ofstream out(path, std::ios::trunc);
        out << "tdmstore 1 schema 2\nnope\n";
    }
    // A fresh instance indexes the damaged blob (the scan is
    // name-based), then discovers the damage on fetch: miss, counted
    // as corrupt, and dropped from the index so later fetches are
    // plain misses that a re-publish can heal.
    service::ResultStore store(dir.str());
    EXPECT_EQ(store.stats().blobs, 1u);
    EXPECT_FALSE(store.fetch(kKey).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().blobs, 0u);
    EXPECT_FALSE(store.fetch(kKey).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);

    store.publish(kKey, sampleSummary());
    EXPECT_TRUE(store.fetch(kKey).has_value());
}

TEST(ResultStore, DigestCollisionWithDifferentKeyIsMiss)
{
    StoreDir dir("collision");
    service::ResultStore store(dir.str());
    // Force a blob whose digest-derived name matches kKey but whose
    // stored key differs — what a real 64-bit digest collision would
    // produce. The stored-key check must refuse to serve it.
    {
        std::ofstream out(store.pathForKey(kKey), std::ios::trunc);
        service::writeSummaryBlob(out, "other=spec;", sampleSummary(),
                                  service::ResultStore::kSchemaVersion);
    }
    service::ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().blobs, 1u);
    EXPECT_FALSE(reopened.fetch(kKey).has_value());
    // Not corruption — the blob is intact, just not ours.
    EXPECT_EQ(reopened.stats().corrupt, 0u);
}

TEST(ResultStore, ConcurrentPublishFetchHammer)
{
    // 8 threads x 600 ops over 16 keys, mixing publishes and fetches
    // of the same keys (same bytes per key, so racing writers are
    // benign by design). Arithmetic pins that every fetch was either
    // a faithful hit or a clean miss.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kOps = 600;
    constexpr unsigned kKeys = 16;

    StoreDir dir("hammer");
    service::ResultStore store(dir.str());

    std::vector<RunSummary> summaries(kKeys);
    for (unsigned k = 0; k < kKeys; ++k) {
        sim::MetricSet m = sampleSummary().metrics();
        m.set("machine.makespan_ticks", 1000 + k);
        summaries[k] = *driver::summaryOf(m);
    }
    auto keyOf = [](unsigned k) {
        return "cores=" + std::to_string(k) + ";";
    };

    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned i = 0; i < kOps; ++i) {
                const unsigned k = (t * 5 + i) % kKeys;
                if (i % 3 == 0) {
                    store.publish(keyOf(k), summaries[k]);
                } else {
                    auto hit = store.fetch(keyOf(k));
                    if (hit) {
                        EXPECT_EQ(hit->makespan, 1000 + k);
                    }
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_EQ(store.stats().blobs, kKeys);
    for (unsigned k = 0; k < kKeys; ++k) {
        auto hit = store.fetch(keyOf(k));
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->makespan, 1000 + k);
    }
}
