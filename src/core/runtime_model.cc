#include "core/runtime_model.hh"

#include "cpu/machine_config.hh"
#include "hwbaselines/task_superscalar.hh"
#include "sim/logging.hh"

namespace tdm::core {

namespace {

const RuntimeTraits kTraits[] = {
    {RuntimeType::Software, DepMode::Software, SchedMode::SoftwarePool,
     "sw", "SW", "software dependence tracking + software scheduling"},
    {RuntimeType::Tdm, DepMode::Hardware, SchedMode::SoftwarePool, "tdm",
     "TDM", "DMU dependence tracking + software scheduling"},
    {RuntimeType::Carbon, DepMode::Software, SchedMode::HardwareQueues,
     "carbon", "Carbon",
     "hardware task queues (fixed FIFO + stealing), software deps"},
    {RuntimeType::TaskSuperscalar, DepMode::Hardware,
     SchedMode::HardwareFifo, "tss", "TaskSS",
     "hardware dependence tracking + fixed hardware FIFO scheduling"},
};

} // namespace

const RuntimeTraits &
traitsOf(RuntimeType type)
{
    for (const auto &t : kTraits)
        if (t.type == type)
            return t;
    sim::panic("unknown runtime type");
}

const std::vector<RuntimeType> &
allRuntimeTypes()
{
    static const std::vector<RuntimeType> all = {
        RuntimeType::Software,
        RuntimeType::Tdm,
        RuntimeType::Carbon,
        RuntimeType::TaskSuperscalar,
    };
    return all;
}

RuntimeSpec
runtimeSpec(RuntimeType type, const cpu::MachineConfig &cfg)
{
    const RuntimeTraits &t = traitsOf(type);
    RuntimeSpec s{type, t.displayName, t.description};
    switch (type) {
      case RuntimeType::Software:
        break;
      case RuntimeType::Tdm:
        s.hwStorageKB = dmu::totalStorageKB(cfg.dmu);
        s.hwAreaMm2 = dmu::totalAreaMm2(cfg.dmu);
        break;
      case RuntimeType::Carbon:
        s.hwStorageKB = hw::carbonStorageKB(cfg.carbon, cfg.numCores);
        s.hwAreaMm2 = hw::carbonAreaMm2(cfg.carbon, cfg.numCores);
        break;
      case RuntimeType::TaskSuperscalar:
        s.hwStorageKB = hw::tssStorageKB(hw::TssConfig{});
        s.hwAreaMm2 = hw::tssAreaMm2(hw::TssConfig{});
        break;
    }
    return s;
}

} // namespace tdm::core
