/**
 * @file
 * Ferret (PARSECSs): 6-stage similarity-search pipeline (load, segment,
 * extract, vectorize, rank, output). The first and last stages are
 * serialized (input reading and output ordering); the middle stages are
 * parallel across query items, each stage consuming the previous
 * stage's output for that item.
 *
 * Table II: 256 items x 6 stages = 1536 tasks of ~7.7 ms.
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned numStages = 6;
// Per-stage durations in us; rank dominates, as in the real benchmark.
constexpr double stageUs[numStages] = {1100, 4400, 9900, 14300, 13100,
                                       3200};
} // namespace

rt::TaskGraph
buildFerret(const WorkloadParams &p)
{
    unsigned items = static_cast<unsigned>(p.granularity);
    if (items < 1)
        sim::fatal("ferret: need at least 1 item");

    rt::TaskGraph g("ferret");
    g.swDepCostFactor = 1.0;

    rt::RegionId load_state = g.addRegion(64);
    rt::RegionId out_state = g.addRegion(64);
    // Per item, per stage output buffer.
    std::vector<rt::RegionId> buf(static_cast<std::size_t>(items)
                                  * (numStages - 1));
    for (auto &b : buf)
        b = g.addRegion(96 * 1024);
    auto out_of = [&](unsigned item, unsigned stage) {
        return buf[item * (numStages - 1) + stage];
    };

    g.beginParallel(sim::usToTicks(150.0));
    for (unsigned i = 0; i < items; ++i) {
        for (unsigned s = 0; s < numStages; ++s) {
            std::uint64_t key = static_cast<std::uint64_t>(i) * numStages
                              + s;
            g.createTask(noisyCycles(sim::usToTicks(stageUs[s]), p.seed,
                                     key, p.durationNoise),
                         static_cast<std::uint16_t>(s));
            if (s == 0) {
                g.dep(load_state, rt::DepDir::InOut); // serial input
                g.dep(out_of(i, 0), rt::DepDir::Out);
            } else if (s == numStages - 1) {
                g.dep(out_of(i, s - 1), rt::DepDir::In);
                g.dep(out_state, rt::DepDir::InOut); // serial output
            } else {
                g.dep(out_of(i, s - 1), rt::DepDir::In);
                g.dep(out_of(i, s), rt::DepDir::Out);
            }
        }
    }
    return g;
}

} // namespace tdm::wl
