#include "driver/campaign/campaign.hh"

#include <algorithm>
#include <map>

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace tdm::driver::campaign {

namespace {

struct RegistryEntry
{
    std::string description;
    CampaignFactory factory;
    CampaignCounter counter;
};

std::map<std::string, RegistryEntry> &
registry()
{
    static std::map<std::string, RegistryEntry> reg;
    return reg;
}

} // namespace

namespace detail {
// Defined in builtin.cc; idempotent.
void registerBuiltinCampaigns();
} // namespace detail

void
registerCampaign(const std::string &name, const std::string &description,
                 CampaignFactory factory, CampaignCounter counter)
{
    registry()[name] = RegistryEntry{description, std::move(factory),
                                     std::move(counter)};
}

std::vector<std::pair<std::string, std::string>>
campaignList()
{
    detail::registerBuiltinCampaigns();
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &[name, entry] : registry())
        out.emplace_back(name, entry.description);
    return out;
}

bool
hasCampaign(const std::string &name)
{
    detail::registerBuiltinCampaigns();
    return registry().count(name) != 0;
}

std::size_t
campaignPointCount(const std::string &name)
{
    detail::registerBuiltinCampaigns();
    auto it = registry().find(name);
    if (it == registry().end())
        sim::fatal("unknown campaign: ", name);
    if (it->second.counter)
        return it->second.counter();
    return it->second.factory().points.size();
}

Campaign
makeCampaign(const std::string &name)
{
    detail::registerBuiltinCampaigns();
    auto it = registry().find(name);
    if (it == registry().end()) {
        std::vector<std::string> names;
        for (const auto &[n, entry] : registry())
            names.push_back(n);
        sim::fatal("unknown campaign: ", name,
                   sim::suggestHint(name, names),
                   " (campaign_run --list shows the registered ones)");
    }
    Campaign c = it->second.factory();
    c.name = name;
    if (c.description.empty())
        c.description = it->second.description;
    return c;
}

std::string
pointLabel(const std::string &workload, const std::string &runtime,
           const std::string &scheduler)
{
    return workload + "/" + runtime + "/" + scheduler;
}

} // namespace tdm::driver::campaign
