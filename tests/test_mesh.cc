/**
 * @file
 * Unit tests for the 2D mesh NoC model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "noc/mesh.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"

using namespace tdm;

namespace {

/**
 * Reference mesh accounting: walks every hop of the XY route and bumps
 * the link it leaves on (index node * 4 + dir, dir 0..3 = N/E/S/W), and
 * computes latency from the hop and flit counts.
 */
struct RefMesh
{
    noc::MeshConfig cfg;
    std::vector<std::uint64_t> links;
    std::uint64_t flitHops = 0, messages = 0, hopSum = 0;
    double latSum = 0.0;

    explicit RefMesh(const noc::MeshConfig &c)
        : cfg(c), links(static_cast<std::size_t>(c.width) * c.height * 4, 0)
    {}

    template <typename Fn>
    void walkPath(noc::NodeId from, noc::NodeId to, Fn &&fn) const
    {
        unsigned x = from % cfg.width, y = from / cfg.width;
        unsigned tx = to % cfg.width, ty = to / cfg.width;
        while (x != tx) {
            unsigned dir = x < tx ? 1u : 3u; // E : W
            fn((y * cfg.width + x) * std::size_t{4} + dir);
            x = x < tx ? x + 1 : x - 1;
        }
        while (y != ty) {
            unsigned dir = y < ty ? 2u : 0u; // S : N
            fn((y * cfg.width + x) * std::size_t{4} + dir);
            y = y < ty ? y + 1 : y - 1;
        }
    }

    sim::Tick transfer(noc::NodeId from, noc::NodeId to, unsigned bytes)
    {
        unsigned h = 0;
        walkPath(from, to, [&](std::size_t) { ++h; });
        unsigned flits =
            std::max(1u, (bytes + cfg.flitBytes - 1) / cfg.flitBytes);
        sim::Tick lat = static_cast<sim::Tick>(cfg.routerLatency) * (h + 1)
                      + static_cast<sim::Tick>(cfg.linkLatency) * h
                      + (flits - 1);
        walkPath(from, to, [&](std::size_t link) {
            links[link] += flits;
            flitHops += flits;
        });
        ++messages;
        hopSum += h;
        latSum += static_cast<double>(lat);
        return lat;
    }
};

/** Replays a fixed-seed random (from, to, bytes) stream through a Mesh
 *  and the reference, mixing transfer, roundTrip and roundTrip over a
 *  resolved route, and requires exact agreement after every message. */
void
replayAgainstReference(unsigned width, unsigned height)
{
    SCOPED_TRACE(testing::Message() << width << "x" << height);
    const noc::MeshConfig cfg{width, height, 2, 1, 16};
    noc::Mesh mesh(cfg);
    RefMesh ref(cfg);
    sim::MetricRegistry reg;
    mesh.regMetrics(reg.context("mesh"));

    const unsigned nodes = width * height;
    sim::Rng rng(0x5eed0000u + width * 131u + height);
    auto check = [&](std::uint64_t step) {
        ASSERT_EQ(mesh.linkFlits(), ref.links) << "after message " << step;
        ASSERT_EQ(mesh.flitHops(), ref.flitHops);
        ASSERT_EQ(mesh.messages(), ref.messages);
        ASSERT_EQ(reg.value("mesh.hop_sum"),
                  static_cast<double>(ref.hopSum));
        ASSERT_EQ(reg.value("mesh.avg_hop_latency"),
                  ref.latSum / static_cast<double>(ref.messages));
    };
    for (unsigned i = 0; i < 400; ++i) {
        const noc::NodeId from = static_cast<noc::NodeId>(rng.below(nodes));
        // One message in eight stays on its node (zero hops).
        const noc::NodeId to = rng.below(8) == 0
                                   ? from
                                   : static_cast<noc::NodeId>(
                                         rng.below(nodes));
        const unsigned bytes = 1 + static_cast<unsigned>(rng.below(100));
        const unsigned kind = static_cast<unsigned>(rng.below(3));
        if (kind == 0) {
            ASSERT_EQ(mesh.transfer(from, to, bytes),
                      ref.transfer(from, to, bytes));
        } else {
            // A route resolved once (as the machine does per core) must
            // account exactly like the NodeId form.
            const noc::Mesh::RoundTrip rt =
                kind == 1 ? mesh.roundTrip(from, to, bytes)
                          : mesh.roundTrip(mesh.route(from, to, bytes));
            EXPECT_EQ(rt.hops, mesh.hops(from, to));
            ASSERT_EQ(rt.request, ref.transfer(from, to, bytes));
            ASSERT_EQ(rt.response, ref.transfer(to, from, bytes));
        }
        check(ref.messages);
        if (testing::Test::HasFatalFailure())
            return;
        if (i % 50 == 0) {
            // Reading the gauge must not disturb later accounting.
            ASSERT_EQ(reg.value("mesh.max_link_flits"),
                      static_cast<double>(*std::max_element(
                          ref.links.begin(), ref.links.end())));
        }
    }
}

} // namespace

TEST(Mesh, HopCountIsManhattan)
{
    noc::Mesh m(noc::MeshConfig{6, 6, 1, 1, 16});
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 5), 5u);
    EXPECT_EQ(m.hops(0, 35), 10u);
    EXPECT_EQ(m.hops(7, 14), 2u); // (1,1) -> (2,2)
}

TEST(Mesh, CenterNode)
{
    noc::Mesh m(noc::MeshConfig{6, 6, 1, 1, 16});
    EXPECT_EQ(m.centerNode(), 21u); // (3,3)
}

TEST(Mesh, CoresSkipCenterNode)
{
    noc::Mesh m(noc::MeshConfig{6, 6, 1, 1, 16});
    noc::NodeId center = m.centerNode();
    for (sim::CoreId c = 0; c < 32; ++c)
        EXPECT_NE(m.nodeOfCore(c), center);
    EXPECT_EQ(m.nodeOfCore(0), 0u);
    EXPECT_EQ(m.nodeOfCore(20), 20u);
    EXPECT_EQ(m.nodeOfCore(21), 22u); // shifted past the center
}

TEST(Mesh, LatencyGrowsWithDistanceAndSize)
{
    noc::Mesh m(noc::MeshConfig{6, 6, 1, 1, 16});
    sim::Tick near = m.latency(0, 1, 16);
    sim::Tick far = m.latency(0, 35, 16);
    EXPECT_GT(far, near);
    sim::Tick small = m.latency(0, 35, 16);
    sim::Tick big = m.latency(0, 35, 160);
    EXPECT_GT(big, small);
}

TEST(Mesh, ZeroHopLatencyIsRouterOnly)
{
    noc::Mesh m(noc::MeshConfig{4, 4, 2, 1, 16});
    EXPECT_EQ(m.latency(5, 5, 16), 2u);
}

TEST(Mesh, TransferAccumulatesTraffic)
{
    noc::Mesh m(noc::MeshConfig{4, 4, 1, 1, 16});
    EXPECT_EQ(m.messages(), 0u);
    m.transfer(0, 3, 16); // 3 hops, 1 flit
    EXPECT_EQ(m.messages(), 1u);
    EXPECT_EQ(m.flitHops(), 3u);
    m.transfer(0, 3, 32); // 2 flits
    EXPECT_EQ(m.flitHops(), 9u);
    EXPECT_EQ(m.maxLinkFlits(), 3u); // each link of 0 -> 3 carries 1 + 2
}

TEST(Mesh, LinkCountsMatchHopWalkingReference)
{
    const unsigned shapes[][2] = {{1, 9}, {9, 1}, {1, 1}, {3, 7},
                                  {7, 3}, {6, 6}, {17, 17}, {33, 31},
                                  {33, 33}};
    for (const auto &s : shapes)
        replayAgainstReference(s[0], s[1]);
}
