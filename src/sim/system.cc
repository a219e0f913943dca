#include "sim/system.hh"

#include "common/logging.hh"

namespace ppa
{

System::System(const SystemConfig &config)
    : cfg(config), clockDomain(config.clockGhz * 1e9)
{
    PPA_ASSERT(cfg.numCores >= 1, "system needs at least one core");
    hierarchy = std::make_unique<MemHierarchy>(cfg.mem, cfg.numCores,
                                               clockDomain);
    if (cfg.core.mode == PersistMode::Capri) {
        // One chip-level persist path (4 GB/s) shared by all cores;
        // redo-buffer capacity pools the per-core 54 KB arrays.
        capriChannels.push_back(std::make_unique<CapriChannel>(
            clockDomain, 4.0, std::uint64_t{54} * KiB * cfg.numCores));
    }
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        cores.push_back(std::make_unique<Core>(cfg.core, c, *hierarchy));
        if (cfg.core.mode == PersistMode::Capri)
            cores.back()->bindCapriChannel(capriChannels.front().get());
    }
}

void
System::bindSource(unsigned core_id, DynInstSource *source)
{
    PPA_ASSERT(core_id < cores.size(), "bad core id");
    cores[core_id]->bindSource(source);
}

void
System::seedMemory(const MemImage &initial)
{
    initial.forEachWord([&](Addr a, Word v) {
        hierarchy->initializeWord(a, v);
    });
}

void
System::tick()
{
    hierarchy->tick(curCycle);
    for (auto &core : cores)
        core->tick();
    ++curCycle;
}

bool
System::allDone() const
{
    for (const auto &core : cores) {
        if (!core->done())
            return false;
    }
    return true;
}

Cycle
System::run(Cycle max_cycles)
{
    while (!allDone()) {
        if (max_cycles && curCycle >= max_cycles)
            break;
        tick();
    }
    // Orderly shutdown: flush dirty state so the NVM image is
    // complete. The flush happens off the measured clock — run-time
    // comparisons (the paper's methodology) do not charge the
    // baseline for a final whole-cache writeback.
    hierarchy->drainAll(curCycle);
    return curCycle;
}

void
System::runUntilCycle(Cycle target_cycle)
{
    while (curCycle < target_cycle && !allDone())
        tick();
}

std::vector<CheckpointImage>
System::powerFail()
{
    std::vector<CheckpointImage> images;
    images.reserve(cores.size());
    for (auto &core : cores)
        images.push_back(core->powerFail());
    hierarchy->powerFail();
    return images;
}

void
System::recover(const std::vector<CheckpointImage> &images)
{
    PPA_ASSERT(images.size() == cores.size(),
               "checkpoint count must match core count");
    // Arbitrary recovery order across cores is sound for DRF programs
    // (Section 6): each core's CSQ entries are disjoint.
    for (std::size_t c = 0; c < cores.size(); ++c)
        cores[c]->recover(images[c]);
}

System
System::fork() const
{
    return System(*this, ForkTag{});
}

System::System(const System &parent, ForkTag)
    : cfg(parent.cfg), clockDomain(parent.clockDomain),
      hierarchy(std::make_unique<MemHierarchy>(*parent.hierarchy)),
      curCycle(parent.curCycle)
{
    for (const auto &channel : parent.capriChannels)
        capriChannels.push_back(std::make_unique<CapriChannel>(*channel));
    for (unsigned c = 0; c < parent.numCores(); ++c) {
        CapriChannel *channel = parent.cores[c]->capri
                                    ? capriChannels.front().get()
                                    : nullptr;
        cores.push_back(std::unique_ptr<Core>(
            new Core(*parent.cores[c], *hierarchy, channel)));
        hierarchy->writeBuffer(c).setObserver(nullptr);
    }
}

std::uint64_t
System::totalCommitted() const
{
    std::uint64_t n = 0;
    for (const auto &core : cores)
        n += core->committedInsts();
    return n;
}

} // namespace ppa
