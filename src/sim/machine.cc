#include "sim/machine.hh"

namespace sst
{

Machine::Machine(const MachineConfig &config, const Program &program)
    : program_(program), chip_(config, {&program})
{
}

RunResult
Machine::harvest()
{
    Core &core = chip_.core(0);
    const Watchdog &watchdog = chip_.watchdog(0);

    RunResult res;
    res.preset = chip_.config().presetName;
    res.workload = program_.name();
    res.cycles = core.cycles();
    res.insts = core.instsRetired();
    res.ipc = core.ipc();
    res.finished = core.halted();
    if (!res.finished)
        res.degrade = chip_.livelocked() ? DegradeReason::Livelock
                                         : DegradeReason::CycleBudget;
    res.stats = core.stats().flatten();
    for (const auto &kv : chip_.memsys().faults().stats().flatten())
        res.stats[kv.first] = kv.second;
    res.stats["watchdog.recoveries"] =
        static_cast<double>(watchdog.recoveries());
    res.stats["watchdog.interventions"] =
        static_cast<double>(watchdog.interventions());

    auto stat = [&](const std::string &suffix) {
        for (const auto &kv : res.stats)
            if (kv.first.size() >= suffix.size()
                && kv.first.compare(kv.first.size() - suffix.size(),
                                    suffix.size(), suffix)
                       == 0)
                return kv.second;
        return 0.0;
    };
    res.l1dMissRate = stat("l1d.miss_rate");
    res.meanDemandMlp = stat("l1_mshrs.demand_mlp.mean");
    res.mispredictRate = stat(".mispredict_rate");
    return res;
}

RunResult
Machine::run(std::uint64_t max_cycles)
{
    chip_.stepTo(max_cycles);
    return harvest();
}

RunResult
Machine::run(std::uint64_t max_cycles, const SnapPolicy &snap)
{
    chip_.stepTo(max_cycles, snap);
    return harvest();
}

RunResult
runOn(const std::string &preset, const Program &program,
      std::uint64_t max_cycles)
{
    Machine machine(makePreset(preset), program);
    return machine.run(max_cycles);
}

} // namespace sst
