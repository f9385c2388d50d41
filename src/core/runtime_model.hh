/**
 * @file
 * Runtime-system models evaluated by the paper, expressed as two
 * orthogonal axes: where dependence management happens (software
 * tracker vs DMU) and where scheduling happens (software pool vs
 * hardware queues).
 *
 *   Software        = SW deps + SW pool   (the baseline runtime)
 *   Tdm             = DMU deps + SW pool  (this paper)
 *   Carbon          = SW deps + HW distributed queues [10]
 *   TaskSuperscalar = DMU deps + HW FIFO  [11]
 */

#ifndef TDM_CORE_RUNTIME_MODEL_HH
#define TDM_CORE_RUNTIME_MODEL_HH

#include <string>
#include <vector>

namespace tdm::cpu {
struct MachineConfig;
}

namespace tdm::core {

/** Which runtime system drives the machine. */
enum class RuntimeType
{
    Software,
    Tdm,
    Carbon,
    TaskSuperscalar,
};

/** Where dependence management happens. */
enum class DepMode { Software, Hardware };

/** Where task scheduling happens. */
enum class SchedMode
{
    SoftwarePool,     ///< lock-protected pool + pluggable policy
    HardwareQueues,   ///< per-core HW queues + fixed FIFO/steal (Carbon)
    HardwareFifo,     ///< DMU Ready Queue popped directly (Task Supersc.)
};

/** Static description of a runtime model. */
struct RuntimeTraits
{
    RuntimeType type;
    DepMode dep;
    SchedMode sched;
    const char *name;        ///< spec/CLI name ("sw", "tdm", ...)
    const char *displayName; ///< figure label ("SW", "TDM", ...)
    const char *description;

    bool usesDmu() const { return dep == DepMode::Hardware; }
};

/** Traits of each runtime type. */
const RuntimeTraits &traitsOf(RuntimeType type);

/** All four runtimes, in the paper's comparison order. */
const std::vector<RuntimeType> &allRuntimeTypes();

/** Static description of one runtime system's hardware cost. */
struct RuntimeSpec
{
    RuntimeType type;
    std::string displayName;
    std::string description;
    double hwStorageKB = 0.0; ///< dedicated hardware storage
    double hwAreaMm2 = 0.0;   ///< dedicated hardware area
};

/** Spec of @p type on the machine @p cfg (Section VI-C). */
RuntimeSpec runtimeSpec(RuntimeType type, const cpu::MachineConfig &cfg);

} // namespace tdm::core

#endif // TDM_CORE_RUNTIME_MODEL_HH
