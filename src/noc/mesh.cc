#include "noc/mesh.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tdm::noc {

Mesh::Mesh(const MeshConfig &cfg) : cfg_(cfg)
{
    if (cfg_.width == 0 || cfg_.height == 0)
        sim::fatal("mesh dimensions must be nonzero");
    linkDiff_.assign((static_cast<std::size_t>(numNodes()) + 1) * 4, 0);
}

unsigned
Mesh::hops(NodeId from, NodeId to) const
{
    return distance(at(from), at(to));
}

unsigned
Mesh::distance(XY a, XY b)
{
    unsigned dx = a.x > b.x ? a.x - b.x : b.x - a.x;
    unsigned dy = a.y > b.y ? a.y - b.y : b.y - a.y;
    return dx + dy;
}

NodeId
Mesh::centerNode() const
{
    unsigned cx = cfg_.width / 2;
    unsigned cy = cfg_.height / 2;
    return cy * cfg_.width + cx;
}

NodeId
Mesh::nodeOfCore(sim::CoreId core) const
{
    // Cores fill the mesh row-major, skipping the center node which is
    // reserved for the DMU / shared-L2 controller.
    NodeId center = centerNode();
    NodeId n = core;
    if (n >= center)
        ++n;
    if (n >= numNodes())
        sim::panic("core ", core, " does not fit in the mesh");
    return n;
}

unsigned
Mesh::flitsOf(unsigned bytes) const
{
    return std::max(1u, (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes);
}

sim::Tick
Mesh::latencyOf(unsigned h, unsigned flits) const
{
    return static_cast<sim::Tick>(cfg_.routerLatency) * (h + 1)
         + static_cast<sim::Tick>(cfg_.linkLatency) * h + (flits - 1);
}

sim::Tick
Mesh::latency(NodeId from, NodeId to, unsigned bytes) const
{
    return route(from, to, bytes).latency;
}

void
Mesh::legsOf(XY from, XY to, Route::Leg (&legs)[2]) const
{
    // XY routing: the X leg runs along row from.y, the Y leg along
    // column to.x. Each leg adds flits to the inclusive range [lo, hi]
    // of its direction's block.
    const std::size_t block = numNodes() + 1;
    auto leg = [&](Route::Leg &l, unsigned dir, std::size_t lo,
                   std::size_t hi) {
        l.add = static_cast<std::uint32_t>(dir * block + lo);
        l.sub = static_cast<std::uint32_t>(dir * block + hi + 1);
    };
    const std::size_t cols = cfg_.width, rows = cfg_.height;
    const std::size_t fx = from.x, fy = from.y, tx = to.x, ty = to.y;
    legs[0] = legs[1] = Route::Leg{};
    if (fx < tx)
        leg(legs[0], 1, fy * cols + fx, fy * cols + tx - 1); // E
    else if (fx > tx)
        leg(legs[0], 3, fy * cols + tx + 1, fy * cols + fx); // W
    if (fy < ty)
        leg(legs[1], 2, tx * rows + fy, tx * rows + ty - 1); // S
    else if (fy > ty)
        leg(legs[1], 0, tx * rows + ty + 1, tx * rows + fy); // N
}

sim::Tick
Mesh::send(const Route &r, const Route::Leg (&legs)[2])
{
    for (const Route::Leg &l : legs) {
        linkDiff_[l.add] += r.flits;
        linkDiff_[l.sub] -= r.flits;
    }
    flitHops_ += static_cast<std::uint64_t>(r.flits) * r.hops;
    ++messages_;
    hopSum_ += r.hops;
    msgLatency_.sample(static_cast<double>(r.latency));
    return r.latency;
}

sim::Tick
Mesh::transfer(NodeId from, NodeId to, unsigned bytes)
{
    const Route r = route(from, to, bytes);
    return send(r, r.legs[0]);
}

Mesh::Route
Mesh::route(NodeId from, NodeId to, unsigned bytes) const
{
    Route r;
    const XY a = at(from), b = at(to);
    legsOf(a, b, r.legs[0]);
    legsOf(b, a, r.legs[1]);
    r.hops = distance(a, b);
    r.flits = flitsOf(bytes);
    r.latency = latencyOf(r.hops, r.flits);
    return r;
}

Mesh::RoundTrip
Mesh::roundTrip(const Route &r)
{
    RoundTrip rt;
    rt.hops = r.hops;
    rt.request = send(r, r.legs[0]);
    rt.response = send(r, r.legs[1]);
    return rt;
}

std::vector<std::uint64_t>
Mesh::linkFlits() const
{
    const std::size_t n = numNodes(), block = n + 1;
    std::vector<std::uint64_t> out(n * 4, 0);
    for (unsigned dir = 0; dir < 4; ++dir) {
        const bool rowMajor = dir == 1 || dir == 3;
        std::uint64_t run = 0;
        for (std::size_t i = 0; i < n; ++i) {
            run += linkDiff_[dir * block + i];
            const std::size_t node =
                rowMajor ? i
                         : (i % cfg_.height) * cfg_.width + i / cfg_.height;
            out[node * 4 + dir] = run;
        }
    }
    return out;
}

std::uint64_t
Mesh::maxLinkFlits() const
{
    const std::vector<std::uint64_t> links = linkFlits();
    return *std::max_element(links.begin(), links.end());
}

void
Mesh::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("messages", &messages_, "messages routed");
    ctx.counter("flit_hops", &flitHops_, "flit-hops traversed");
    ctx.counter("hop_sum", &hopSum_, "router hops summed over messages");
    ctx.average("avg_hop_latency", &msgLatency_,
                "mean end-to-end message latency in cycles");
    ctx.formulaFn("avg_hops",
                  [this] {
                      return messages_
                                 ? static_cast<double>(hopSum_)
                                       / static_cast<double>(messages_)
                                 : 0.0;
                  },
                  "mean router hops per message");
    ctx.gauge("max_link_flits",
              [this] { return static_cast<double>(maxLinkFlits()); },
              "traffic on the busiest link in flits");
}

} // namespace tdm::noc
