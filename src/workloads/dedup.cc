/**
 * @file
 * Dedup (PARSECSs): pipeline parallelism with a serialized I/O stage.
 *
 * Per input chunk, a compute-intensive task (fragment+hash+compress
 * collapsed) produces a compressed buffer, and an I/O-intensive reorder
 * task writes it to the output stream. I/O tasks are serialized by an
 * inout dependence on the output-file region (Section VI-A: "I/O tasks
 * cannot be executed in parallel, enforced by means of control
 * dependencies"). The pipeline recycles input buffers with a bounded
 * window: reorder task i releases (out-deps) the chunk buffer of chunk
 * i+W, which (a) bounds the in-flight footprint exactly like the real
 * benchmark's fixed buffer pool and (b) gives I/O tasks two successors,
 * so the Successor scheduler prioritizes the serialized chain and
 * overlaps I/O with computation.
 *
 * Table II: 244 tasks of ~27.7 ms (122 chunks x 2 stages).
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned window = 64;          ///< buffer-pool depth
constexpr double computeUs = 53000.0;    ///< compress stage
constexpr double ioUs = 2450.0;          ///< reorder/write stage

enum Kernel : std::uint16_t { Kcompute = 1, Kio };
} // namespace

rt::TaskGraph
buildDedup(const WorkloadParams &p)
{
    // Dedup's granularity is fixed by the pipeline structure (Fig. 6
    // omits it); granularity, when given, scales the chunk count.
    unsigned chunks = static_cast<unsigned>(p.granularity);
    if (chunks < 2)
        sim::fatal("dedup: need at least 2 chunks");

    rt::TaskGraph g("dedup");
    g.swDepCostFactor = 1.0;

    std::vector<rt::RegionId> chunk_buf(chunks);
    std::vector<rt::RegionId> compressed(chunks);
    for (unsigned i = 0; i < chunks; ++i) {
        chunk_buf[i] = g.addRegion(512 * 1024);
        compressed[i] = g.addRegion(256 * 1024);
    }
    rt::RegionId out_file = g.addRegion(64);

    g.beginParallel(sim::usToTicks(200.0));
    for (unsigned i = 0; i < chunks; ++i) {
        g.createTask(noisyCycles(sim::usToTicks(computeUs), p.seed,
                                 2 * i, p.durationNoise), Kcompute);
        g.dep(chunk_buf[i], rt::DepDir::In);
        g.dep(compressed[i], rt::DepDir::Out);

        g.createTask(noisyCycles(sim::usToTicks(ioUs), p.seed,
                                 2 * i + 1, p.durationNoise), Kio);
        g.dep(compressed[i], rt::DepDir::In);
        g.dep(out_file, rt::DepDir::InOut);
        if (i + window < chunks)
            g.dep(chunk_buf[i + window], rt::DepDir::Out);
    }
    return g;
}

} // namespace tdm::wl
