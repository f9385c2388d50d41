#include "workloads/registry.hh"

#include "sim/logging.hh"

namespace tdm::wl {

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> all = {
        {"blackscholes", "bla", "slice KB",
         {1, 2, 4, 8}, 4, 2, &buildBlackscholes},
        {"cholesky", "cho", "tile bytes",
         {4096, 16384, 65536, 262144}, 16384, 16384, &buildCholesky},
        {"dedup", "ded", "chunks", {}, 122, 122, &buildDedup},
        {"ferret", "fer", "items", {}, 256, 256, &buildFerret},
        {"fluidanimate", "flu", "partitions",
         {256, 128, 64, 32}, 64, 64, &buildFluidanimate},
        {"histogram", "hist", "tile bytes",
         {4096, 16384, 65536, 262144, 1048576}, 262144, 262144,
         &buildHistogram},
        {"lu", "LU", "tile bytes",
         {4096, 16384, 65536}, 65536, 65536, &buildLu},
        {"qr", "QR", "tile side",
         {16, 32, 64, 128, 256}, 64, 32, &buildQr},
        {"streamcluster", "str", "points/task",
         {64, 128, 256, 512, 1024}, 256, 256, &buildStreamcluster},
    };
    return all;
}

const WorkloadInfo &
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : allWorkloads())
        if (w.name == name || w.shortName == name)
            return w;
    sim::fatal("unknown workload: ", name);
}

rt::TaskGraph
buildWorkload(const std::string &name, const WorkloadParams &params)
{
    const WorkloadInfo &w = findWorkload(name);
    if (!(params.granularity >= 0.0))
        sim::fatal("workload ", w.name, ": invalid granularity ",
                   params.granularity);
    WorkloadParams resolved = params;
    if (resolved.granularity == 0.0)
        resolved.granularity = w.swGranularity;
    return w.build(resolved);
}

} // namespace tdm::wl
