/**
 * @file
 * campaign_serve — the campaign-as-a-service daemon: one shared
 * engine, a persistent content-addressed result store, a
 * line-delimited JSON protocol on a local socket, and an optional
 * embedded HTTP dashboard.
 *
 * Usage:
 *   campaign_serve [options]
 *
 * Options:
 *   --listen ADDR   unix:PATH or tcp:HOST:PORT (loopback only);
 *                   default tcp:127.0.0.1:7077. Port 0 binds an
 *                   ephemeral port — the "listening on" line reports
 *                   the actual address, which is how scripts and CI
 *                   discover it.
 *   --http ADDR     serve the live dashboard (HTTP + SSE) on ADDR
 *                   (same unix:/tcp: grammar, loopback only; port 0
 *                   works here too, reported by the "dashboard on"
 *                   line). Off by default: without it the daemon
 *                   starts no HTTP threads and does no per-event work.
 *   --store DIR     persistent result store (created if absent);
 *                   without it the daemon serves from memory only
 *   --threads N     engine worker threads (default: hardware
 *                   concurrency)
 *   --trace-dir DIR write Chrome trace JSON per simulated point whose
 *                   spec enables trace.categories (DIR must exist)
 *   --log-level L   quiet|warn|info|debug (default info)
 *   --quiet         log level warn
 *
 * The daemon runs until a client sends {"op":"shutdown"} or it
 * receives SIGINT/SIGTERM; either way it stops accepting, unwinds its
 * client connections, and exits 0 with the served-totals line — so a
 * ^C'd daemon on a unix socket still removes its socket file.
 * Concurrent clients share the engine's caches and in-flight claim
 * table, so overlapping sweeps cost one simulation per distinct
 * fingerprint — see src/driver/service/ and the README "Campaign
 * service" / "Dashboard" sections.
 *
 *   campaign_serve --listen tcp:127.0.0.1:0 --store /var/tmp/tdm-store \
 *                  --http tcp:127.0.0.1:0
 *   campaign_run --server tcp:127.0.0.1:PORT fig12
 *   tools/campaign_client.py --server tcp:127.0.0.1:PORT sweep.campaign
 */

#include <atomic>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <pthread.h>
#include <signal.h>

#include "driver/campaign/engine.hh"
#include "driver/service/server.hh"
#include "sim/logging.hh"

using namespace tdm;
namespace svc = tdm::driver::service;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--listen ADDR] [--http ADDR] [--store DIR]"
                 " [--threads N] [--trace-dir DIR] [--log-level LEVEL]"
                 " [--quiet]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string listen = "tcp:127.0.0.1:7077";
    svc::ServerOptions opts;
    opts.engine.threads = 0; // hardware concurrency
    sim::setLogLevel(sim::LogLevel::Info);

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--listen")) {
            listen = need(i);
        } else if (!std::strcmp(a, "--http")) {
            opts.httpAddr = need(i);
        } else if (!std::strcmp(a, "--store")) {
            opts.storeDir = need(i);
        } else if (!std::strcmp(a, "--threads")) {
            opts.engine.threads =
                static_cast<unsigned>(driver::campaign::parseUintArg(
                    need(i), "--threads", UINT32_MAX));
        } else if (!std::strcmp(a, "--trace-dir")) {
            opts.engine.traceDir = need(i);
        } else if (!std::strcmp(a, "--log-level")) {
            const std::string lv = need(i);
            sim::LogLevel level;
            if (!sim::parseLogLevel(lv, level)) {
                std::cerr << "--log-level expects quiet|warn|info"
                             "|debug, got '"
                          << lv << "'\n";
                return 2;
            }
            sim::setLogLevel(level);
        } else if (!std::strcmp(a, "--quiet")) {
            sim::setLogLevel(sim::LogLevel::Warn);
        } else {
            usage(argv[0]);
        }
    }

    // Graceful SIGINT/SIGTERM: block the signals in every thread
    // (must happen before any thread is spawned — children inherit
    // the mask), then dedicate one thread to sigwait. On delivery it
    // stops the server, which unwinds serve() and lets main run the
    // normal exit path — unix socket files get unlinked, the totals
    // line gets printed, and the exit code is 0, same as a
    // client-requested shutdown.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    try {
        svc::Address addr = svc::parseAddress(listen);
        svc::CampaignServer server(addr, opts);
        // The discovery lines scripts scrape (ephemeral ports resolve
        // here); flushed before serving so a parent process polling
        // stdout sees them immediately.
        std::cout << "campaign_serve: listening on "
                  << server.address().display() << std::endl;
        if (const svc::Address *http = server.httpAddress())
            std::cout << "campaign_serve: dashboard on "
                      << http->display() << std::endl;

        std::atomic<bool> exiting{false};
        std::thread watcher([&] {
            int sig = 0;
            while (sigwait(&sigs, &sig) == 0) {
                if (exiting.load())
                    return; // poked by main after serve() returned
                sim::inform("campaign_serve: caught ",
                            sig == SIGINT ? "SIGINT" : "SIGTERM",
                            ", shutting down");
                server.stop();
                return;
            }
        });

        server.serve();

        // Unblock the watcher if it is still parked in sigwait (the
        // shutdown came over the protocol, not via a signal).
        exiting.store(true);
        pthread_kill(watcher.native_handle(), SIGTERM);
        watcher.join();

        const svc::StatusInfo info = server.status();
        using driver::campaign::JobSource;
        auto served = [&](JobSource s) {
            return info.served[static_cast<std::size_t>(s)];
        };
        std::cout << "campaign_serve: served " << info.campaigns
                  << " campaigns, " << info.points << " points ("
                  << served(JobSource::Simulated) << " simulated, "
                  << served(JobSource::Forked) << " forked, "
                  << served(JobSource::Memory) << " memory, "
                  << served(JobSource::Disk) << " disk, "
                  << served(JobSource::Inflight) << " inflight)\n";
        return 0;
    } catch (const sim::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "campaign_serve: " << e.what() << "\n";
        return 1;
    }
}
