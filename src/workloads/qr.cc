/**
 * @file
 * Tiled QR factorization of a dense 1024x1024 matrix: geqrt on the
 * diagonal tile, tsqrt coupling the diagonal with column tiles, unmqr
 * applying the reflectors along the row, and ssrfb updating the
 * trailing submatrix.
 *
 * QR's dependences are declared on tile views of a column-major dense
 * array; in a Nanos++-style software region map those views are
 * strided/overlapping regions, whose splits make dependence matching
 * extremely expensive (the paper's master thread spends 92% of its
 * time in DEPS). The `fragmented` flag on every dependence models
 * this; the DMU is insensitive to it because the alias table matches
 * base addresses.
 *
 * Granularity = tile elements per side M. Table II: SW optimal M=64
 * (N=16, 1496 tasks of ~1 ms); TDM optimal M=32 (N=32, 11440 tasks of
 * ~96 us).
 */

#include "workloads/workload.hh"

#include "sim/logging.hh"

namespace tdm::wl {

namespace {
constexpr unsigned matrixDim = 1024;
constexpr double cyclesPerFlopUnit = 1.39;

enum Kernel : std::uint16_t { Kgeqrt = 1, Ktsqrt, Kunmqr, Kssrfb };
} // namespace

rt::TaskGraph
buildQr(const WorkloadParams &p)
{
    unsigned m = static_cast<unsigned>(p.granularity);
    if (m == 0 || matrixDim % m != 0)
        sim::fatal("qr: tile side ", m, " does not tile the matrix");
    unsigned n = matrixDim / m;

    rt::TaskGraph g("qr");
    g.swDepCostFactor = 1.0; // costs come from the fragmented flag

    std::vector<rt::RegionId> tile(static_cast<std::size_t>(n) * n);
    for (auto &t : tile)
        t = g.addRegion(static_cast<std::uint64_t>(m) * m * 4);
    auto at = [&](unsigned i, unsigned j) { return tile[i * n + j]; };

    double m3 = static_cast<double>(m) * m * m;
    double geqrt_cyc = 2.0 * m3 * cyclesPerFlopUnit;
    double tsqrt_cyc = 3.0 * m3 * cyclesPerFlopUnit;
    double unmqr_cyc = 3.0 * m3 * cyclesPerFlopUnit;
    double ssrfb_cyc = 6.0 * m3 * cyclesPerFlopUnit;

    constexpr bool frag = true;
    g.beginParallel(sim::usToTicks(120.0));
    std::uint64_t key = 0;
    for (unsigned k = 0; k < n; ++k) {
        g.createTask(noisyCycles(geqrt_cyc, p.seed, ++key,
                                 p.durationNoise), Kgeqrt);
        g.dep(at(k, k), rt::DepDir::InOut, frag);
        for (unsigned j = k + 1; j < n; ++j) {
            g.createTask(noisyCycles(unmqr_cyc, p.seed, ++key,
                                     p.durationNoise), Kunmqr);
            g.dep(at(k, k), rt::DepDir::In, frag);
            g.dep(at(k, j), rt::DepDir::InOut, frag);
        }
        for (unsigned i = k + 1; i < n; ++i) {
            g.createTask(noisyCycles(tsqrt_cyc, p.seed, ++key,
                                     p.durationNoise), Ktsqrt);
            g.dep(at(k, k), rt::DepDir::InOut, frag);
            g.dep(at(i, k), rt::DepDir::InOut, frag);
            for (unsigned j = k + 1; j < n; ++j) {
                g.createTask(noisyCycles(ssrfb_cyc, p.seed, ++key,
                                         p.durationNoise), Kssrfb);
                g.dep(at(i, k), rt::DepDir::In, frag);
                g.dep(at(k, j), rt::DepDir::In, frag);
                g.dep(at(i, j), rt::DepDir::InOut, frag);
            }
        }
    }
    return g;
}

} // namespace tdm::wl
