/**
 * @file
 * 2D mesh network-on-chip latency model.
 *
 * The chip is laid out as a WxH mesh of nodes; cores occupy nodes in
 * row-major order and the DMU/L2 controller sits at a configurable node
 * (center by default, following the centralized-DMU design of the paper).
 *
 * The model is analytic: a message of S flits from A to B costs
 *   routerLatency * (hops + 1) + linkLatency * hops + (S - 1)
 * cycles (wormhole pipelining). Per-link flit counts feed only
 * linkFlits() and the max_link_flits gauge; latency never reads them.
 */

#ifndef TDM_NOC_MESH_HH
#define TDM_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::noc {

/** Identifier of a mesh node. */
using NodeId = std::uint32_t;

/** Mesh configuration. */
struct MeshConfig
{
    unsigned width = 6;       ///< mesh columns
    unsigned height = 6;      ///< mesh rows
    unsigned routerLatency = 1; ///< cycles per router traversal
    unsigned linkLatency = 1;   ///< cycles per link traversal
    unsigned flitBytes = 16;    ///< payload bytes per flit
};

/**
 * Analytic 2D mesh with XY dimension-ordered routing.
 */
class Mesh
{
  public:
    explicit Mesh(const MeshConfig &cfg);

    /** Number of nodes. */
    unsigned numNodes() const { return cfg_.width * cfg_.height; }

    /** Node coordinates. */
    unsigned xOf(NodeId n) const { return n % cfg_.width; }
    unsigned yOf(NodeId n) const { return n / cfg_.width; }

    /** Manhattan hop count between two nodes. */
    unsigned hops(NodeId from, NodeId to) const;

    /** Node closest to the mesh center (DMU home). */
    NodeId centerNode() const;

    /** Mesh node hosting core @p core (row-major placement). */
    NodeId nodeOfCore(sim::CoreId core) const;

    /**
     * Latency in cycles of a message of @p bytes payload from @p from to
     * @p to; also adds the message to the totals and its flits to the
     * links of its XY route.
     */
    sim::Tick transfer(NodeId from, NodeId to, unsigned bytes);

    /** Latencies of one request/response message pair. */
    struct RoundTrip
    {
        sim::Tick request = 0;  ///< from -> to
        sim::Tick response = 0; ///< to -> from
        unsigned hops = 0;      ///< one-way Manhattan hop count
    };

    /**
     * A resolved message path: everything a round trip needs besides
     * the accounting, computed once by route().
     */
    struct Route
    {
        /** One leg's link-difference update: a message's flits are
         *  added at index @c add and taken off at @c sub (equal
         *  indices cancel: the message has no such leg). */
        struct Leg
        {
            std::uint32_t add = 0, sub = 0;
        };

        Leg legs[2][2];         ///< [from->to, to->from][X leg, Y leg]
        unsigned hops = 0;      ///< Manhattan hop count
        unsigned flits = 0;     ///< flits per message
        sim::Tick latency = 0;  ///< per-message latency
    };

    /** Resolve the path of @p bytes-payload messages from @p from to
     *  @p to (pure query; records no traffic). */
    Route route(NodeId from, NodeId to, unsigned bytes) const;

    /**
     * Model the request and response messages of one remote operation
     * (e.g. a DMU ISA op) over a resolved route: records traffic for
     * both directions, in order, and returns the two latencies
     * separately so the caller can interleave the remote processing
     * time.
     */
    RoundTrip roundTrip(const Route &r);

    /** roundTrip() over route(@p from, @p to, @p bytes). */
    RoundTrip
    roundTrip(NodeId from, NodeId to, unsigned bytes)
    {
        return roundTrip(route(from, to, bytes));
    }

    /** Latency without recording traffic (pure query). */
    sim::Tick latency(NodeId from, NodeId to, unsigned bytes) const;

    /** Total flit-hops routed so far. */
    std::uint64_t flitHops() const { return flitHops_; }

    /** Total messages routed. */
    std::uint64_t messages() const { return messages_; }

    /**
     * Flits routed over each directed link, indexed node * 4 + dir
     * (dir 0..3 = N/E/S/W, the link leaving the node that way).
     * Rebuilt from the difference arrays on every call.
     */
    std::vector<std::uint64_t> linkFlits() const;

    /** Traffic (flits) on the busiest link. */
    std::uint64_t maxLinkFlits() const;

    /** Register traffic and latency metrics under @p ctx's scope
     *  ("mesh"). */
    void regMetrics(sim::MetricContext ctx);

  private:
    /** Node coordinates. */
    struct XY
    {
        unsigned x, y;
    };
    XY at(NodeId n) const { return {xOf(n), yOf(n)}; }
    static unsigned distance(XY a, XY b);

    /** Flits of a message of @p bytes payload (at least one). */
    unsigned flitsOf(unsigned bytes) const;

    /** Latency of a message of @p flits over @p h links. */
    sim::Tick latencyOf(unsigned h, unsigned flits) const;

    /** The X and Y legs of the XY route from @p from to @p to. */
    void legsOf(XY from, XY to, Route::Leg (&legs)[2]) const;

    /** Account one message of @p r over @p legs (one of r's two
     *  directions); returns its latency. */
    sim::Tick send(const Route &r, const Route::Leg (&legs)[2]);

    MeshConfig cfg_;
    /**
     * Per-link flit counts as difference arrays: one block of
     * numNodes() + 1 entries per direction, E/W row-major (y * W + x)
     * and N/S column-major (x * H + y), so each leg of an XY route is
     * one contiguous range and costs two updates.
     */
    std::vector<std::uint64_t> linkDiff_;
    std::uint64_t flitHops_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t hopSum_ = 0;  ///< hops summed over messages
    sim::Average msgLatency_;   ///< per-message end-to-end latency
};

} // namespace tdm::noc

#endif // TDM_NOC_MESH_HH
