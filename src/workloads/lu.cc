/**
 * @file
 * LU decomposition of a 2048x2048 blocked sparse matrix: getrf on the
 * diagonal tile, trsm on the row and column panels, gemm on the
 * trailing submatrix. The paper's input is sparse; the dependence
 * structure is that of the dense tiling (every tile task exists), with
 * the kernel cost scaled down to the paper's measured 424 us average
 * (sparse tiles do proportionally less work).
 *
 * Granularity = tile bytes. Table II: 64 KB tiles (M=128) -> N=16 and
 * 1496 tasks.
 */

#include "workloads/workload.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned matrixDim = 2048;
constexpr double cyclesPerFlop = 0.205; ///< sparse-density scaling

enum Kernel : std::uint16_t { Kgetrf = 1, KtrsmRow, KtrsmCol, Kgemm };
} // namespace

rt::TaskGraph
buildLu(const WorkloadParams &p)
{
    double bytes = p.granularity;
    unsigned m = static_cast<unsigned>(std::lround(
        std::sqrt(bytes / 4.0)));
    if (m == 0 || matrixDim % m != 0)
        sim::fatal("lu: tile bytes ", bytes, " does not tile the matrix");
    unsigned n = matrixDim / m;

    rt::TaskGraph g("lu");
    g.swDepCostFactor = 1.5;

    std::vector<rt::RegionId> tile(static_cast<std::size_t>(n) * n);
    for (auto &t : tile)
        t = g.addRegion(static_cast<std::uint64_t>(m) * m * 4);
    auto at = [&](unsigned i, unsigned j) { return tile[i * n + j]; };

    double m3 = static_cast<double>(m) * m * m;
    double getrf_cyc = 2.0 / 3.0 * m3 * cyclesPerFlop;
    double trsm_cyc = 1.0 * m3 * cyclesPerFlop;
    double gemm_cyc = 2.0 * m3 * cyclesPerFlop;

    g.beginParallel(sim::usToTicks(120.0));
    std::uint64_t key = 0;
    for (unsigned k = 0; k < n; ++k) {
        g.createTask(noisyCycles(getrf_cyc, p.seed, ++key,
                                 p.durationNoise), Kgetrf);
        g.dep(at(k, k), rt::DepDir::InOut);
        for (unsigned j = k + 1; j < n; ++j) {
            g.createTask(noisyCycles(trsm_cyc, p.seed, ++key,
                                     p.durationNoise), KtrsmRow);
            g.dep(at(k, k), rt::DepDir::In);
            g.dep(at(k, j), rt::DepDir::InOut);
        }
        for (unsigned i = k + 1; i < n; ++i) {
            g.createTask(noisyCycles(trsm_cyc, p.seed, ++key,
                                     p.durationNoise), KtrsmCol);
            g.dep(at(k, k), rt::DepDir::In);
            g.dep(at(i, k), rt::DepDir::InOut);
        }
        for (unsigned i = k + 1; i < n; ++i) {
            for (unsigned j = k + 1; j < n; ++j) {
                g.createTask(noisyCycles(gemm_cyc, p.seed, ++key,
                                         p.durationNoise), Kgemm);
                g.dep(at(i, k), rt::DepDir::In);
                g.dep(at(k, j), rt::DepDir::In);
                g.dep(at(i, j), rt::DepDir::InOut);
            }
        }
    }
    return g;
}

} // namespace tdm::wl
