/**
 * @file
 * Task Superscalar baseline (Etsion et al., MICRO 2010) — both
 * dependence management and scheduling in hardware, with a fixed FIFO
 * policy.
 *
 * Functionally the machine model composes it from the DMU (dependence
 * tracking) plus direct hardware Ready Queue scheduling. This header
 * provides the hardware-cost model of the original pipeline, which the
 * paper sizes (Section VI-C) at 769 KB for the configuration matched to
 * the DMU: a 1 KB Gateway, a 256 KB TRS, a 256 KB ORT and a 256 KB
 * Ready Queue (2048 entries x 128 B each), yielding the 7.3x storage
 * advantage of the DMU.
 */

#ifndef TDM_HWBASELINES_TASK_SUPERSCALAR_HH
#define TDM_HWBASELINES_TASK_SUPERSCALAR_HH

#include <vector>

#include "power/cacti_model.hh"

namespace tdm::hw {

/** Task Superscalar hardware parameters. */
struct TssConfig
{
    unsigned entries = 2048;      ///< in-flight tasks / dependences
    unsigned bytesPerEntry = 128; ///< TRS/ORT/RQ record size
    unsigned gatewayKB = 1;
};

/** The structure inventory (for area tables). */
std::vector<pwr::SramSpec> tssSramSpecs(const TssConfig &cfg);

/** Total storage in KB (769 KB at the default configuration). */
double tssStorageKB(const TssConfig &cfg);

/** Total area in mm^2 (fitted 22 nm model, CAM-heavy structures). */
double tssAreaMm2(const TssConfig &cfg);

} // namespace tdm::hw

#endif // TDM_HWBASELINES_TASK_SUPERSCALAR_HH
