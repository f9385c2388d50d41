/**
 * @file
 * Cycle cost models of runtime-system operations.
 *
 * These constants stand in for the measured cost of Nanos++-style
 * runtime activity on the simulated 2 GHz OoO core. They are the main
 * calibration surface of the reproduction: the software dependence-
 * matching costs are chosen so that the software-runtime breakdown
 * reproduces the pattern of Figure 2 (the master's DEPS share dominant
 * for Cholesky and QR, workers ~65% EXEC and ~32% IDLE;
 * bench_fig2_breakdown prints the reproduced table), and the TDM-side
 * costs follow the ISA/NoC/DMU path of Section III.
 */

#ifndef TDM_RUNTIME_COST_MODEL_HH
#define TDM_RUNTIME_COST_MODEL_HH

#include "sim/types.hh"

namespace tdm::rt {

/** Costs of the pure-software runtime path. */
struct SwCosts
{
    /** Allocate + initialize a task descriptor. */
    sim::Tick taskAllocCycles = 1500;

    /** Region-map lookup for one dependence. */
    sim::Tick depLookupCycles = 1200;

    /** Insert one TDG edge / reader registration. */
    sim::Tick edgeInsertCycles = 300;

    /** Visit one reader during a WAR scan. */
    sim::Tick readerScanCycles = 120;

    /** Region-map split/merge for a fragmented dependence. */
    sim::Tick fragmentSplitCycles = 22000;

    /** Fixed part of task finalization. */
    sim::Tick finishBaseCycles = 400;

    /** Per-successor wake-up work at finalization. */
    sim::Tick perSuccessorCycles = 170;

    /** Per-dependence cleanup at finalization. */
    sim::Tick perDepCleanupCycles = 130;

    /** Runtime lock hold time for pool operations. */
    sim::Tick poolPushCycles = 80;
    sim::Tick poolPopCycles = 110;
};

/** Costs of the TDM path (software side of the co-design). */
struct TdmCosts
{
    /** Descriptor allocation still happens in software. */
    sim::Tick taskAllocCycles = 1500;

    /** Issue/commit overhead of one TDM ISA instruction (barrier
     *  semantics: the pipeline drains around it). */
    sim::Tick issueCycles = 6;

    /** Software pool costs (scheduling stays in software). */
    sim::Tick poolPushCycles = 80;
    sim::Tick poolPopCycles = 110;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_COST_MODEL_HH
