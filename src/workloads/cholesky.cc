/**
 * @file
 * Cholesky factorization of a dense 2048x2048 blocked matrix, exactly
 * following the annotated loop nest of Figure 1: sgemm, ssyrk, spotrf
 * and strsm tasks on MxM tiles.
 *
 * Granularity = tile bytes (M*M*4). Table II: 16 KB tiles (M=64) give
 * N=32 tile rows and 5984 tasks of ~183 us.
 */

#include "workloads/workload.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned matrixDim = 2048;
constexpr double cyclesPerFlop = 0.80;

enum Kernel : std::uint16_t { Kgemm = 1, Ksyrk, Kpotrf, Ktrsm };
} // namespace

rt::TaskGraph
buildCholesky(const WorkloadParams &p)
{
    double bytes = p.granularity;
    unsigned m = static_cast<unsigned>(std::lround(
        std::sqrt(bytes / 4.0)));
    if (m == 0 || matrixDim % m != 0)
        sim::fatal("cholesky: tile bytes ", bytes,
                   " does not tile a 2048x2048 float matrix");
    unsigned n = matrixDim / m;

    rt::TaskGraph g("cholesky");
    // Deep region-tree matching: scaled so the master's DEPS share
    // approaches Figure 2's 84% for Cholesky (bench_fig2_breakdown).
    g.swDepCostFactor = 5.0;

    // Blocked storage A[N][N][M][M]: contiguous tiles.
    std::vector<rt::RegionId> tile(static_cast<std::size_t>(n) * n);
    for (auto &t : tile)
        t = g.addRegion(static_cast<std::uint64_t>(m) * m * 4);
    auto at = [&](unsigned i, unsigned j) { return tile[i * n + j]; };

    double m3 = static_cast<double>(m) * m * m;
    double gemm_cyc = 2.0 * m3 * cyclesPerFlop;
    double syrk_cyc = 1.0 * m3 * cyclesPerFlop;
    double trsm_cyc = 1.0 * m3 * cyclesPerFlop;
    double potrf_cyc = m3 / 3.0 * cyclesPerFlop;

    g.beginParallel(sim::usToTicks(120.0));
    std::uint64_t key = 0;
    for (unsigned j = 0; j < n; ++j) {
        for (unsigned k = 0; k < j; ++k) {
            for (unsigned i = j + 1; i < n; ++i) {
                g.createTask(noisyCycles(gemm_cyc, p.seed, ++key,
                                         p.durationNoise), Kgemm);
                g.dep(at(i, k), rt::DepDir::In);
                g.dep(at(j, k), rt::DepDir::In);
                g.dep(at(i, j), rt::DepDir::InOut);
            }
        }
        for (unsigned i = j + 1; i < n; ++i) {
            g.createTask(noisyCycles(syrk_cyc, p.seed, ++key,
                                     p.durationNoise), Ksyrk);
            // The paper's listing reads A[j][i]; the lower-triangular
            // factorization consumes the column tile A[i][j] (the
            // listing transposes the index pair), which is what links
            // syrk to the gemm/trsm updates in the TDG of Figure 1.
            g.dep(at(i, j), rt::DepDir::In);
            g.dep(at(j, j), rt::DepDir::InOut);
        }
        g.createTask(noisyCycles(potrf_cyc, p.seed, ++key,
                                 p.durationNoise), Kpotrf);
        g.dep(at(j, j), rt::DepDir::InOut);
        for (unsigned i = j + 1; i < n; ++i) {
            g.createTask(noisyCycles(trsm_cyc, p.seed, ++key,
                                     p.durationNoise), Ktrsm);
            g.dep(at(j, j), rt::DepDir::In);
            g.dep(at(i, j), rt::DepDir::InOut);
        }
    }
    return g;
}

} // namespace tdm::wl
