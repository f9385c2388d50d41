#include "driver/service/server.hh"

#include <utility>

#include "sim/logging.hh"

namespace tdm::driver::service {

CampaignServer::CampaignServer(const Address &addr, ServerOptions opts)
    : opts_(std::move(opts)),
      store_(opts_.storeDir.empty()
                 ? nullptr
                 : std::make_unique<ResultStore>(opts_.storeDir)),
      engine_([&] {
          campaign::EngineOptions eo = opts_.engine;
          eo.backend = store_.get();
          return std::make_unique<campaign::CampaignEngine>(eo);
      }()),
      started_(std::chrono::steady_clock::now()),
      conns_(addr,
             [this](Socket &sock, const std::atomic<bool> &stopping) {
                 handleClient(sock, stopping);
             })
{
    if (!opts_.httpAddr.empty()) {
        registry_ = std::make_unique<CampaignRegistry>();
        dashboard_ = std::make_unique<Dashboard>(
            *registry_, store_.get(), [this] { return status(); });
        http_ = std::make_unique<HttpServer>(
            parseAddress(opts_.httpAddr),
            [this](const HttpRequest &req, Socket &sock,
                   const std::atomic<bool> &stopping) {
                dashboard_->handle(req, sock, stopping);
            });
    }
    sim::inform("campaign_serve: listening on ", address().display(),
                store_ ? " (store: " + store_->versionDir() + ")"
                       : " (no persistent store)");
    if (http_)
        sim::inform("campaign_serve: dashboard on ",
                    http_->address().display());
}

CampaignServer::~CampaignServer() { stopAndJoin(); }

void
CampaignServer::serve()
{
    conns_.run();
    if (!conns_.stopping())
        sim::warn("campaign_serve: accept failed, stopping");
    stopAndJoin();
}

void
CampaignServer::stopAndJoin()
{
    stop();
    conns_.join();
    if (http_)
        http_->stop();
}

void
CampaignServer::stop()
{
    conns_.requestStop();
    // Closing the stream unblocks SSE sessions waiting in
    // Session::next().
    if (registry_)
        registry_->close();
    if (http_)
        http_->requestStop();
}

void
CampaignServer::handleClient(Socket &sock,
                             const std::atomic<bool> &stopping)
{
    sim::inform("campaign_serve: client connected");
    std::string line;
    while (!stopping.load() && sock.readLine(line)) {
        if (line.empty())
            continue;
        Request req;
        std::string error;
        report::Text out;
        if (!parseRequest(line, req, error)) {
            writeError(out, error);
        } else if (req.op == RequestOp::Ping) {
            writePong(out);
        } else if (req.op == RequestOp::Status) {
            writeStatus(out, status());
        } else if (req.op == RequestOp::Shutdown) {
            writeBye(out);
            sock.sendAll(out.str());
            sim::inform("campaign_serve: shutdown requested by client");
            stop();
            return;
        } else {
            handleSubmit(sock, req.submit);
            continue;
        }
        if (!sock.sendAll(out.str()))
            return;
    }
    if (sock.lineTooLong()) {
        // The rest of the line is still unread: no resync, just close.
        report::Text out;
        writeError(out, "request line exceeds "
                            + std::to_string(Socket::kMaxLineBytes)
                            + " bytes");
        sock.sendAll(out.str());
    }
}

void
CampaignServer::handleSubmit(Socket &sock, const SubmitRequest &req)
{
    campaign::Campaign c;
    sim::MetricSelection selection;
    try {
        c = buildCampaign(req);
        selection = sim::MetricSelection(c.metrics);
    } catch (const std::exception &e) {
        report::Text out;
        writeError(out, e.what());
        sock.sendAll(out.str());
        return;
    }
    const std::uint64_t id = nextId_.fetch_add(1);
    sim::inform("campaign_serve: submit #", id, " '", c.name, "' (",
                c.points.size(), " points)");

    // The one sink for this submit's events. Each arrives rendered
    // once, as its protocol line. With --http the registry records it
    // on its live stream first, so a dashboard sees the exact bytes
    // the client got, and has them by the time the client does.
    // The socket gets it while sends succeed: a failed send cannot
    // abort the run (the engine owns the jobs; other clients may be
    // attached to them), it only ends this client's stream.
    bool sendOk = true;
    const auto emit = [&](const report::Text &out, const auto &record) {
        const std::string &line = out.str();
        if (registry_)
            record(*registry_, line);
        if (sendOk)
            sendOk = sock.sendAll(line);
    };

    report::Text accepted;
    writeAccepted(accepted, id, c.name, c.points.size());
    emit(accepted, [&](CampaignRegistry &r, const std::string &line) {
        r.accepted(id, c, line);
    });

    const campaign::CampaignResult result = engine_->run(
        c, [&](const campaign::JobResult &job, std::size_t index,
               std::size_t total) {
            if (!sendOk && !registry_)
                return;
            report::Text out;
            writePoint(out, id, job, index, total, selection);
            emit(out, [&](CampaignRegistry &r, const std::string &line) {
                r.point(id, job, index, line);
            });
        });

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++served_.campaigns;
        served_.points += result.jobs.size();
        for (const campaign::JobResult &job : result.jobs)
            ++served_.served[static_cast<std::size_t>(job.source)];
    }
    sim::inform("campaign_serve: submit #", id, " done: ",
                result.simulated, " simulated, ", result.fromForked,
                " forked, ", result.fromMemory, " memory, ",
                result.fromDisk, " disk, ", result.fromInflight,
                " inflight");
    report::Text done;
    writeDone(done, id, result);
    emit(done, [&](CampaignRegistry &r, const std::string &line) {
        r.done(id, result, line);
    });
}

StatusInfo
CampaignServer::status() const
{
    StatusInfo info;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        info = served_;
    }
    info.cachePoints = engine_->cachedCount();
    info.inflight = engine_->inflightCount();
    info.threads = engine_->options().threads;
    info.uptimeMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started_)
                        .count();
    if (store_) {
        info.hasStore = true;
        info.storeDir = store_->dir();
        info.store = store_->stats();
    }
    if (http_) {
        info.hasHttp = true;
        info.httpAddr = http_->address().display();
        info.httpRequests = http_->requests();
        registry_->streamStatus(info);
    }
    return info;
}

} // namespace tdm::driver::service
