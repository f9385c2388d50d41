#include "hwbaselines/carbon.hh"

#include "power/cacti_model.hh"

namespace tdm::hw {

double
carbonStorageKB(const CarbonConfig &cfg, unsigned num_cores)
{
    return static_cast<double>(num_cores) * cfg.queueEntriesPerCore * 8.0
         / 1024.0;
}

double
carbonAreaMm2(const CarbonConfig &cfg, unsigned num_cores)
{
    pwr::CactiModel model;
    pwr::SramSpec spec{"carbon_queue", cfg.queueEntriesPerCore, 64, 1, 0};
    double one = model.estimate(spec).areaMm2;
    return one * num_cores;
}

} // namespace tdm::hw
