/**
 * @file
 * Built-in campaigns: the multi-point paper figures and ablations,
 * declared as spec grids in one constant table, and the name lookups
 * over it, so the engine (and the campaign_run CLI) can execute them.
 * The bench binaries build their tables from these same
 * definitions, so figure output and campaign output can never drift
 * apart — and test_spec.cc pins the grid expansions byte-identical
 * (labels and fingerprints) to the historical hand-coded loops.
 */

#include "driver/campaign/campaign.hh"

#include "driver/spec/grid.hh"
#include "runtime/scheduler.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"
#include "workloads/registry.hh"

namespace tdm::driver::campaign {

namespace {

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : wl::allWorkloads())
        names.push_back(w.name);
    return names;
}

/** Figure 12: every (SW, TDM) x scheduler combination per benchmark. */
spec::Grid
fig12Grid()
{
    return spec::Grid()
        .axis("workload", workloadNames())
        .axis("runtime", {"sw", "tdm"})
        .axis("scheduler", rt::allSchedulerNames())
        .label("{workload}/{runtime}/{scheduler}");
}

/** Figure 13: SW baseline, Carbon, Task Superscalar, TDM x schedulers. */
spec::Grid
fig13Grid()
{
    // The runtime/scheduler combinations are not a product: the three
    // baselines run FIFO only, TDM runs every policy — a list axis.
    std::vector<std::vector<std::string>> rows = {
        {"sw", "fifo"}, {"carbon", "fifo"}, {"tss", "fifo"}};
    for (const auto &s : rt::allSchedulerNames())
        rows.push_back({"tdm", s});
    return spec::Grid()
        .axis("workload", workloadNames())
        .zip({"runtime", "scheduler"}, std::move(rows))
        .label("{workload}/{runtime}/{scheduler}");
}

/** Core-count scaling ablation: SW vs TDM at 8..64 cores. */
spec::Grid
ablationScalingGrid()
{
    // The mesh must fit cores + the DMU node, so the core count zips
    // with its fitted mesh dimension instead of sweeping alone.
    std::vector<std::vector<std::string>> coreRows;
    for (unsigned cores : {8u, 16u, 32u, 64u}) {
        unsigned dim = 2;
        while (dim * dim < cores + 1)
            ++dim;
        coreRows.push_back({std::to_string(cores), std::to_string(dim),
                            std::to_string(dim)});
    }
    return spec::Grid()
        .axis("workload", {"cholesky", "qr", "streamcluster"})
        .zip({"machine.cores", "mesh.width", "mesh.height"},
             std::move(coreRows))
        .axis("runtime", {"sw", "tdm"})
        .label("{workload}/c{machine.cores}/{runtime}");
}

/**
 * Memory/power sensitivity ablation: each (workload, runtime) point
 * swept over L1 capacity and active-core power. Points that differ
 * only in `power.*` keys share one trajectory, so this is the fork
 * showcase: the engine simulates 12 cold legs and serves the other 24
 * points by finalize forks, where a cold engine simulates all 36.
 */
spec::Grid
ablationSensitivityGrid()
{
    return spec::Grid()
        .axis("workload", {"cholesky", "lu"})
        .axis("runtime", {"sw", "tdm"})
        .axis("mem.l1_bytes", {"16384", "32768", "65536"})
        .axis("power.active_w", {"0.6", "0.9", "1.2"})
        .label("{workload}/{runtime}/l1_{mem.l1_bytes}"
               "/w{power.active_w}");
}

/** One built-in campaign; its grid is built on demand. */
struct BuiltinCampaign
{
    const char *name;
    const char *description;
    spec::Grid (*grid)();
};

/** Every built-in campaign, sorted by name (campaignList's order). */
constexpr BuiltinCampaign kCampaigns[] = {
    {"ablation_scaling",
     "Core-count scaling ablation: SW vs TDM at 8-64 cores",
     ablationScalingGrid},
    {"ablation_sensitivity",
     "Memory/power sensitivity ablation: L1 size x active watts per "
     "runtime (warm-fork showcase)",
     ablationSensitivityGrid},
    {"fig12", "Fig. 12: scheduler sweep under SW and TDM", fig12Grid},
    {"fig13", "Fig. 13: Carbon / Task Superscalar / TDM vs the SW baseline",
     fig13Grid},
};

const BuiltinCampaign *
findCampaign(const std::string &name)
{
    for (const BuiltinCampaign &c : kCampaigns)
        if (name == c.name)
            return &c;
    return nullptr;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
campaignList()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const BuiltinCampaign &c : kCampaigns)
        out.emplace_back(c.name, c.description);
    return out;
}

bool
hasCampaign(const std::string &name)
{
    return findCampaign(name) != nullptr;
}

std::size_t
campaignPointCount(const std::string &name)
{
    const BuiltinCampaign *c = findCampaign(name);
    if (!c)
        sim::fatal("unknown campaign: ", name);
    return c->grid().size();
}

Campaign
makeCampaign(const std::string &name)
{
    const BuiltinCampaign *c = findCampaign(name);
    if (!c) {
        std::vector<std::string> names;
        for (const BuiltinCampaign &b : kCampaigns)
            names.push_back(b.name);
        sim::fatal("unknown campaign: ", name,
                   sim::suggestHint(name, names),
                   " (campaign_run --list shows the built-in ones)");
    }
    return c->grid().toCampaign(c->name, c->description);
}

std::string
pointLabel(const std::string &workload, const std::string &runtime,
           const std::string &scheduler)
{
    return workload + "/" + runtime + "/" + scheduler;
}

} // namespace tdm::driver::campaign
