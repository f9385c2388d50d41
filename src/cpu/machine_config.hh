/**
 * @file
 * Full machine configuration, defaults matching Table I of the paper:
 * 32 OoO cores at 2 GHz, 32 KB L1s, 4 MB shared L2, and the selected
 * DMU sizing (2048-entry TAT/DAT, 1024-entry list arrays, 1 cycle per
 * structure access).
 */

#ifndef TDM_CPU_MACHINE_CONFIG_HH
#define TDM_CPU_MACHINE_CONFIG_HH

#include <string>

#include "dmu/geometry.hh"
#include "hwbaselines/carbon.hh"
#include "mem/memory_model.hh"
#include "noc/mesh.hh"
#include "power/core_power.hh"
#include "runtime/cost_model.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace tdm::cpu {

/** Everything needed to build a Machine. */
struct MachineConfig
{
    unsigned numCores = 32;

    /** Software scheduling policy (for SW and TDM runtimes). */
    std::string scheduler = "fifo";
    std::uint32_t succThreshold = 1;

    mem::MemConfig mem{};
    noc::MeshConfig mesh{};
    dmu::DmuConfig dmu{};
    rt::SwCosts swCosts{};
    rt::TdmCosts tdmCosts{};
    hw::CarbonConfig carbon{};
    pwr::CorePowerParams power{};
    sim::TraceConfig trace{};

    /** Model the cache hierarchy's effect on task duration. */
    bool enableMemModel = true;

    /**
     * Runtime-system task-creation throttle (Nanos++-style): when this
     * many tasks are in flight, the master executes ready tasks
     * instead of creating new ones, resuming creation when the count
     * drops. Keeps the creation run-ahead bounded below the DMU's
     * capacity in the default configuration (each in-flight task pins
     * one successor-list entry, so the limit must stay well under the
     * 1024-entry list arrays).
     */
    std::uint32_t throttleTasks = 512;

    /** Watchdog: abort runs exceeding this many ticks. */
    sim::Tick maxTicks = static_cast<sim::Tick>(1) << 42;

    /** Payload bytes of a DMU request/response message. */
    unsigned dmuMsgBytes = 24;
};

} // namespace tdm::cpu

#endif // TDM_CPU_MACHINE_CONFIG_HH
