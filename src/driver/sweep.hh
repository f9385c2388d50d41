/**
 * @file
 * One labeled point of a parameter sweep. Campaigns are lists of
 * these; the campaign engine runs them.
 */

#ifndef TDM_DRIVER_SWEEP_HH
#define TDM_DRIVER_SWEEP_HH

#include <string>

#include "driver/experiment.hh"

namespace tdm::driver {

/** One point of a sweep: a label and a configured experiment. */
struct SweepPoint
{
    std::string label;
    Experiment exp;
};

} // namespace tdm::driver

#endif // TDM_DRIVER_SWEEP_HH
