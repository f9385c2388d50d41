/**
 * @file
 * campaign_run — execute experiment campaigns on the thread-pooled
 * campaign engine: built-in ones by name, and arbitrary user-defined
 * studies from *.campaign spec files, no recompile needed.
 *
 * Usage:
 *   campaign_run [options] [CAMPAIGN...]
 *
 * Options:
 *   --list            list built-in campaigns and exit
 *   --keys            print the spec key reference (markdown) and exit
 *   --metric-keys     print the metric key reference (markdown) and exit
 *   --trace-keys      print the trace event/counter reference
 *                     (markdown) and exit
 *   --spec FILE       run the campaign defined in FILE (repeatable)
 *   --set KEY=VALUE   override a spec key on every point (repeatable)
 *   --metrics GLOBS   select the metric subtree each point exports
 *                     ("dmu.*,mesh.*"); overrides any `metrics`
 *                     directive in a *.campaign file
 *   --threads N       worker threads (default: hardware concurrency)
 *   --no-cache        disable result-cache deduplication
 *   --seed-base S     reseed point i with S+i (deterministic per job)
 *   --json FILE       write all results as JSON (with each point's
 *                     full canonical spec)
 *   --csv FILE        write all results as CSV
 *   --trace-dir DIR   write a Chrome trace JSON per simulated point
 *                     whose spec enables trace.categories (e.g.
 *                     --set trace.categories=task,dmu); files are
 *                     named <digest>.json, DIR must exist
 *   --store DIR       persist results in (and serve cache hits from)
 *                     the content-addressed store at DIR — sweeps
 *                     re-run across process restarts cost zero
 *                     simulations
 *   --server ADDR     submit the campaigns to a campaign_serve
 *                     daemon at ADDR (unix:PATH / tcp:HOST:PORT)
 *                     instead of simulating locally; results stream
 *                     back per point and feed the same reports
 *   --log-level LEVEL quiet|warn|info|debug (default info, so
 *                     progress lines show; --quiet drops to warn)
 *   --quiet           suppress per-job progress lines
 *
 * Several campaigns share one engine, so points common to two
 * campaigns (e.g. the SW+FIFO baselines of fig12 and fig13) simulate
 * once and hit the cache the second time:
 *
 *   campaign_run fig12 fig13 --threads 8 --json out.json
 *
 * A text study with an override:
 *
 *   campaign_run --spec examples/sweep_dmu_sizing.campaign \
 *                --set machine.cores=16 --json out.json
 */

#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/campaign/campaign.hh"
#include "driver/campaign/engine.hh"
#include "driver/service/client.hh"
#include "driver/service/store.hh"
#include "driver/report/csv_writer.hh"
#include "driver/report/json_writer.hh"
#include "driver/report/metric_reference.hh"
#include "driver/report/trace_writer.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/grid.hh"
#include "driver/spec/spec.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/table.hh"

using namespace tdm;
namespace cmp = tdm::driver::campaign;
namespace spc = tdm::driver::spec;
namespace svc = tdm::driver::service;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--list] [--keys] [--metric-keys] [--trace-keys]"
                 " [--spec FILE]"
                 " [--set KEY=VALUE] [--metrics GLOBS] [--threads N]"
                 " [--no-cache] [--seed-base S]"
                 " [--json FILE] [--csv FILE] [--trace-dir DIR]"
                 " [--store DIR] [--server ADDR]"
                 " [--log-level LEVEL] [--quiet] [CAMPAIGN...]\n";
    std::exit(2);
}

void
listCampaigns()
{
    sim::Table t("registered campaigns");
    t.header({"name", "points", "description"});
    for (const auto &[name, description] : cmp::campaignList()) {
        t.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(
                cmp::campaignPointCount(name)))
            .cell(description);
    }
    t.print(std::cout);
}

/** The tool proper; main() turns a FatalError into exit 1. */
int
run(int argc, char **argv)
{
    cmp::EngineOptions opts;
    opts.threads = 0; // hardware concurrency
    opts.progress = true;
    // Progress goes through sim::inform, so the tool defaults the
    // global level to Info; --quiet and --log-level override it.
    sim::setLogLevel(sim::LogLevel::Info);
    std::string json_file, csv_file;
    std::string store_dir, server_addr;
    std::string metrics_pattern;
    bool metrics_set = false;
    std::vector<std::string> names;
    std::vector<std::string> spec_files;
    std::vector<std::pair<std::string, std::string>> overrides;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--list")) {
            listCampaigns();
            return 0;
        } else if (!std::strcmp(a, "--keys")) {
            spc::writeKeyReference(std::cout);
            return 0;
        } else if (!std::strcmp(a, "--metric-keys")) {
            driver::report::writeMetricReference(std::cout);
            return 0;
        } else if (!std::strcmp(a, "--trace-keys")) {
            driver::report::writeTraceEventReference(std::cout);
            return 0;
        } else if (!std::strcmp(a, "--spec")) {
            spec_files.emplace_back(need(i));
        } else if (!std::strcmp(a, "--set")) {
            const std::string kv = need(i);
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::cerr << "--set expects KEY=VALUE, got '" << kv
                          << "'\n";
                return 2;
            }
            overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (!std::strcmp(a, "--metrics")) {
            metrics_pattern = need(i);
            metrics_set = true;
            try {
                const sim::MetricSelection validated(metrics_pattern);
            } catch (const sim::MetricError &e) {
                std::cerr << "--metrics: " << e.what() << "\n";
                return 2;
            }
        } else if (!std::strcmp(a, "--threads")) {
            opts.threads = static_cast<unsigned>(
                cmp::parseUintArg(need(i), "--threads", UINT32_MAX));
        } else if (!std::strcmp(a, "--no-cache")) {
            opts.useCache = false;
        } else if (!std::strcmp(a, "--seed-base")) {
            opts.seedBase = cmp::parseUintArg(need(i), "--seed-base");
        } else if (!std::strcmp(a, "--json")) {
            json_file = need(i);
        } else if (!std::strcmp(a, "--csv")) {
            csv_file = need(i);
        } else if (!std::strcmp(a, "--trace-dir")) {
            opts.traceDir = need(i);
        } else if (!std::strcmp(a, "--store")) {
            store_dir = need(i);
        } else if (!std::strcmp(a, "--server")) {
            server_addr = need(i);
        } else if (!std::strcmp(a, "--log-level")) {
            const std::string lv = need(i);
            sim::LogLevel level;
            if (!sim::parseLogLevel(lv, level)) {
                std::cerr << "--log-level expects quiet|warn|info"
                             "|debug, got '" << lv << "'\n";
                return 2;
            }
            sim::setLogLevel(level);
        } else if (!std::strcmp(a, "--quiet")) {
            opts.progress = false;
            if (sim::logLevel() > sim::LogLevel::Warn)
                sim::setLogLevel(sim::LogLevel::Warn);
        } else if (a[0] == '-') {
            usage(argv[0]);
        } else {
            names.emplace_back(a);
        }
    }
    if (names.empty() && spec_files.empty())
        usage(argv[0]);

    // Build every campaign up front so spec/validation errors surface
    // before any simulation starts.
    std::vector<cmp::Campaign> campaigns;
    try {
        for (const std::string &name : names)
            campaigns.push_back(cmp::makeCampaign(name));
        for (const std::string &file : spec_files)
            campaigns.push_back(spc::loadCampaignFile(file).toCampaign());
        for (cmp::Campaign &c : campaigns) {
            if (metrics_set)
                c.metrics = metrics_pattern;
            for (driver::SweepPoint &p : c.points) {
                for (const auto &[key, value] : overrides)
                    spc::applyKey(p.exp, key, value);
                // Re-render labels after overrides: when --set collides
                // with an axis or label key, the label must describe
                // what actually runs (collapsed points then show up as
                // duplicate labels + cache hits, not as a silent lie).
                if (!overrides.empty() && !c.labelTemplate.empty())
                    p.label = spc::renderLabel(c.labelTemplate, p.exp);
            }
        }
    } catch (const spc::SpecError &e) {
        std::cerr << "spec error: " << e.what() << "\n";
        return 2;
    }

    // Three ways to resolve a campaign, one downstream path: local
    // engine, local engine backed by a persistent store, or a remote
    // campaign_serve daemon. All three produce CampaignResults that
    // feed the same tables, summary lines, and JSON/CSV reports.
    if (!server_addr.empty() && !store_dir.empty()) {
        std::cerr << "--server and --store are mutually exclusive "
                     "(the store lives server-side)\n";
        return 2;
    }
    std::unique_ptr<svc::ResultStore> store;
    std::unique_ptr<cmp::CampaignEngine> engine;
    std::unique_ptr<svc::ServiceClient> client;
    std::function<cmp::CampaignResult(const cmp::Campaign &)> runOne;
    try {
        if (!server_addr.empty()) {
            client = std::make_unique<svc::ServiceClient>(server_addr);
            const bool progress = opts.progress;
            runOne = [&, progress](const cmp::Campaign &c) {
                return client->submit(
                    c, [&, progress](const cmp::JobResult &j,
                                     std::size_t index,
                                     std::size_t total) {
                        if (progress)
                            sim::inform("[", index + 1, "/", total,
                                        "] ", j.label, " (",
                                        cmp::jobSourceName(j.source),
                                        ")");
                    });
            };
        } else {
            if (!store_dir.empty()) {
                store = std::make_unique<svc::ResultStore>(store_dir);
                opts.backend = store.get();
            }
            engine = std::make_unique<cmp::CampaignEngine>(opts);
            runOne = [&](const cmp::Campaign &c) {
                return engine->run(c);
            };
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    std::vector<cmp::CampaignResult> results;
    std::size_t failures = 0;

    for (const cmp::Campaign &c : campaigns) {
        if (opts.progress)
            sim::inform("== ", c.name, ": ", c.points.size(),
                        " points ==");
        cmp::CampaignResult rep;
        try {
            rep = runOne(c);
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }

        sim::Table t(c.name + " (" + c.description + ")");
        t.header({"label", "status", "time ms", "energy J", "tasks",
                  "sim ms"});
        for (const cmp::JobResult &j : rep.jobs) {
            t.row()
                .cell(j.label)
                .cell(!j.ok()         ? "FAILED"
                      : j.cacheHit()  ? "cached"
                      : j.source == cmp::JobSource::Forked ? "forked"
                                                           : "ok")
                .cell(j.summary.timeMs, 3)
                .cell(j.summary.energyJ, 4)
                .cell(static_cast<std::uint64_t>(j.summary.numTasks))
                .cell(j.wallMs, 1);
        }
        t.print(std::cout);
        std::cout << c.name << ": " << rep.jobs.size() << " points, "
                  << rep.simulated << " simulated, " << rep.fromForked
                  << " forked (" << rep.warmupsShared
                  << " warmups shared), " << rep.cacheHits
                  << " cache hits (" << rep.fromMemory << " memory, "
                  << rep.fromDisk << " disk, " << rep.fromInflight
                  << " inflight), " << rep.graphBuilds
                  << " graphs built (" << rep.graphShares
                  << " shared), " << rep.failures() << " failures, "
                  << rep.threads << " threads, " << rep.wallMs / 1000.0
                  << " s\n\n";
        failures += rep.failures();
        results.push_back(std::move(rep));
    }

    if (!json_file.empty()) {
        std::ofstream f(json_file);
        if (!f) {
            std::cerr << "cannot write " << json_file << "\n";
            return 1;
        }
        driver::report::writeJson(f, results);
        std::cout << "json: " << json_file << "\n";
    }
    if (!csv_file.empty()) {
        std::ofstream f(csv_file);
        if (!f) {
            std::cerr << "cannot write " << csv_file << "\n";
            return 1;
        }
        driver::report::writeCsv(f, results);
        std::cout << "csv: " << csv_file << "\n";
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const sim::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
