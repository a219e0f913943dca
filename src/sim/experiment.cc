#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/replaycache.hh"
#include "check/auditor.hh"
#include "common/logging.hh"
#include "ppa/checkpoint_io.hh"
#include "sim/segment.hh"
#include "trace/reader.hh"
#include "workload/generator.hh"

namespace ppa
{

namespace detail
{

/**
 * Power-fail the whole system, push every core's checkpoint through
 * the NVM word serialization (what recovery would actually read from
 * media), recover, and audit replay equivalence.
 */
void
injectPowerFailure(System &system,
                   std::vector<std::unique_ptr<check::Auditor>> &auditors,
                   RunStats &rs)
{
    std::vector<CheckpointImage> images = system.powerFail();
    std::vector<CheckpointImage> restored;
    restored.reserve(images.size());
    for (const CheckpointImage &image : images)
        restored.push_back(deserializeCheckpoint(
            serializeCheckpoint(image)));
    system.recover(restored);
    ++rs.powerFailures;
    for (auto &auditor : auditors) {
        check::ReplayAuditResult replay = auditor->verifyReplay();
        ++rs.replayAudits;
        rs.replayMismatches += replay.mismatches;
        rs.replayAddrsChecked += replay.addrsChecked;
        if (!replay.ok() && rs.auditMessages.size() < 16) {
            rs.auditMessages.push_back(detail::composeMessage(
                auditor->context().describe(), ": replay diff found ",
                replay.mismatches, " mismatched addresses"));
        }
    }
}

} // namespace detail

const char *
variantName(SystemVariant variant)
{
    switch (variant) {
      case SystemVariant::MemoryMode:
        return "memory-mode";
      case SystemVariant::Ppa:
        return "PPA";
      case SystemVariant::Capri:
        return "Capri";
      case SystemVariant::ReplayCache:
        return "ReplayCache";
      case SystemVariant::EadrBbb:
        return "eADR/BBB";
      case SystemVariant::DramOnly:
        return "DRAM-only";
    }
    return "?";
}

const char *
variantToken(SystemVariant variant)
{
    switch (variant) {
      case SystemVariant::MemoryMode:
        return "memory-mode";
      case SystemVariant::Ppa:
        return "ppa";
      case SystemVariant::Capri:
        return "capri";
      case SystemVariant::ReplayCache:
        return "replaycache";
      case SystemVariant::EadrBbb:
        return "eadr-bbb";
      case SystemVariant::DramOnly:
        return "dram-only";
    }
    return "?";
}

bool
variantFromToken(const std::string &token, SystemVariant &out)
{
    for (SystemVariant v :
         {SystemVariant::MemoryMode, SystemVariant::Ppa,
          SystemVariant::Capri, SystemVariant::ReplayCache,
          SystemVariant::EadrBbb, SystemVariant::DramOnly}) {
        if (token == variantToken(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

SystemConfig
makeSystemConfig(SystemVariant variant, const ExperimentKnobs &knobs,
                 unsigned threads)
{
    SystemConfig sc;
    sc.numCores = threads;

    sc.core.intPrfEntries = knobs.intPrf;
    sc.core.fpPrfEntries = knobs.fpPrf;
    sc.core.csqEntries = knobs.csqEntries;

    sc.mem.nvm.wpqEntries = knobs.wpqEntries;
    sc.mem.nvm.writeBwGBps = knobs.nvmWriteGbps;
    sc.mem.l3Enabled = knobs.l3Cache;
    sc.mem.wbCoalesceWindow = knobs.wbCoalesceWindow;
    if (knobs.l3Cache) {
        // Section 7.6: private 1 MB L2 at 14 cycles under a shared
        // L3 (16 MB scaled 16x -> 1 MB) at 44 cycles.
        sc.mem.l2 = CacheParams{256 * KiB, 16, 64, 14};
        sc.mem.l3 = CacheParams{1 * MiB, 16, 64, 44};
    }

    // Scale shared resources with thread count (Section 7.11: "scale
    // up the NVM WPQ/shared L2 size proportionally"): a larger socket
    // brings more PMEM channels, so controllers (and hence aggregate
    // write bandwidth) grow with the core count too.
    if (threads > 8) {
        unsigned scale = threads / 8;
        sc.mem.l2.sizeBytes *= scale;
        sc.mem.nvm.wpqEntries *= scale;
        sc.mem.nvm.numControllers *= scale; // power of 2 for 16/32/64
        sc.mem.nvm.writeBwGBps *= scale;
    }

    switch (variant) {
      case SystemVariant::MemoryMode:
        sc.core.mode = PersistMode::Volatile;
        break;
      case SystemVariant::Ppa:
        sc.core.mode = PersistMode::Ppa;
        break;
      case SystemVariant::Capri:
        sc.core.mode = PersistMode::Capri;
        break;
      case SystemVariant::ReplayCache:
        sc.core.mode = PersistMode::ReplayCache;
        break;
      case SystemVariant::EadrBbb:
        // Ideal PSP: app-direct mode, so no DRAM cache; persistence
        // itself is free (battery-backed buffers).
        sc.core.mode = PersistMode::Volatile;
        sc.mem.dramCache.enabled = false;
        break;
      case SystemVariant::DramOnly:
        sc.core.mode = PersistMode::Volatile;
        sc.mem.dramOnly = true;
        break;
    }
    return sc;
}

RunStats
runWorkload(const WorkloadProfile &profile, SystemVariant variant,
            const ExperimentKnobs &knobs)
{
    if (knobs.timeParallel >= 2)
        return runWorkloadTimeParallel(profile, variant, knobs);
    PPA_ASSERT(knobs.tpFailAt.empty(),
               "tpFailAt requires timeParallel >= 2 "
               "(use failAtCycles for serial runs)");
    unsigned threads = knobs.threads ? knobs.threads
                                     : profile.defaultThreads;
    SystemConfig sc = makeSystemConfig(variant, knobs, threads);
    System system(sc);

    // Opt-in invariant audit: one auditor per core, all sharing one
    // committed-store oracle. Only the PPA variant has the audited
    // structures; the knob is ignored elsewhere.
    std::vector<std::unique_ptr<check::Auditor>> auditors;
    if (knobs.audit && sc.core.mode == PersistMode::Ppa) {
        auto oracle = std::make_shared<check::StoreOracle>();
        for (unsigned t = 0; t < threads; ++t) {
            auditors.push_back(std::make_unique<check::Auditor>(
                system.core(t), system.memory(), oracle));
            system.core(t).attachObserver(auditors.back().get());
        }
    }
    PPA_ASSERT(knobs.failAtCycles.empty() ||
                   sc.core.mode == PersistMode::Ppa,
               "power-failure injection requires the PPA variant");

    // Opt-in telemetry: attach at cycle 0 so whole-run stall ratios
    // share RunStats::totalCycles as their denominator.
    std::unique_ptr<obs::Telemetry> telemetry;
    if (knobs.telemetry) {
        obs::TelemetryConfig tc;
        tc.sampleCycles = knobs.telemetrySampleCycles;
        tc.seriesCap =
            static_cast<std::size_t>(knobs.telemetrySeriesCap);
        telemetry = std::make_unique<obs::Telemetry>(tc, threads);
        for (unsigned t = 0; t < threads; ++t)
            telemetry->attach(system.core(t), system.memory());
    }

    // One deterministic stream per thread: either an in-process
    // generator or a recorded-trace replay — the core cannot tell
    // them apart, which is what the bitwise-identity oracle checks.
    // ReplayCache additionally wraps each stream in its compiler
    // transformation.
    RunStats rs;
    trace::TraceSet traceSet;
    std::vector<std::unique_ptr<DynInstSource>> streams;
    std::vector<std::unique_ptr<ReplayCacheTransform>> transforms;
    if (!knobs.traceDir.empty()) {
        traceSet = trace::TraceSet::openOrDie(knobs.traceDir);
        const trace::TraceMeta &meta = traceSet.metadata();
        if (meta.threads != threads) {
            fatal("trace '", knobs.traceDir, "' was recorded with ",
                  meta.threads, " thread(s) but the run wants ", threads);
        }
        if (meta.instsPerThread != knobs.instsPerCore) {
            fatal("trace '", knobs.traceDir, "' holds ",
                  meta.instsPerThread, " insts per thread but the run ",
                  "wants ", knobs.instsPerCore,
                  " (pass matching --insts or re-record)");
        }
        rs.traceDir = knobs.traceDir;
        rs.traceShards =
            static_cast<unsigned>(traceSet.allShards().size());
        for (unsigned t = 0; t < threads; ++t)
            rs.traceInsts += traceSet.threadInsts(t);
        rs.traceCrc = traceSet.combinedCrc();
    }
    for (unsigned t = 0; t < threads; ++t) {
        if (!knobs.traceDir.empty()) {
            streams.push_back(
                std::make_unique<trace::TraceReplaySource>(traceSet, t));
        } else {
            streams.push_back(std::make_unique<StreamGenerator>(
                profile, t, knobs.seed, knobs.instsPerCore));
        }
        if (variant == SystemVariant::ReplayCache) {
            transforms.push_back(std::make_unique<ReplayCacheTransform>(
                *streams.back(), ReplayCacheParams{}));
            system.bindSource(t, transforms.back().get());
        } else {
            system.bindSource(t, streams.back().get());
        }
    }

    // Warm the caches before measurement; see the warmupFraction doc
    // comment in experiment.hh for the semantics.
    Cycle cap = knobs.instsPerCore * 400;
    std::uint64_t warmup_insts = static_cast<std::uint64_t>(
        knobs.warmupFraction *
        static_cast<double>(knobs.instsPerCore) * threads);
    Cycle warm_cycle = 0;
    if (knobs.failAtCycles.empty()) {
        while (!system.allDone() && system.cycle() < cap &&
               system.totalCommitted() < warmup_insts) {
            for (int i = 0; i < 64 && !system.allDone(); ++i)
                system.tick();
        }
        warm_cycle = system.cycle();
        system.run(cap);
    } else {
        // Failure-injection schedule: run to each requested cycle
        // (warmup included), fail, recover through the serialized
        // checkpoints, continue to the next one.
        std::vector<Cycle> failures = knobs.failAtCycles;
        std::sort(failures.begin(), failures.end());
        std::size_t next_fail = 0;
        bool warmed = false;
        while (!system.allDone() && system.cycle() < cap) {
            if (!warmed && system.totalCommitted() >= warmup_insts) {
                warmed = true;
                warm_cycle = system.cycle();
            }
            if (next_fail < failures.size() &&
                system.cycle() >= failures[next_fail]) {
                ++next_fail;
                detail::injectPowerFailure(system, auditors, rs);
            }
            system.tick();
        }
        if (!warmed)
            warm_cycle = system.cycle();
        system.run(cap);
    }

    rs.workload = profile.name;
    rs.variant = variant;
    rs.threads = threads;
    rs.totalCycles = system.cycle();
    rs.cycles = system.cycle() - warm_cycle;
    rs.committedInsts = system.totalCommitted();
    rs.freeIntHist = stats::Histogram(sc.core.intPrfEntries);
    rs.freeFpHist = stats::Histogram(sc.core.fpPrfEntries);

    double region_stores = 0.0;
    double region_others = 0.0;
    unsigned cores_with_regions = 0;
    for (unsigned c = 0; c < system.numCores(); ++c) {
        const Core &core = system.core(c);
        rs.committedStores += core.committedStores();
        const RegionStats &reg = core.regionStats();
        rs.regionCount += reg.regionCount();
        rs.boundaryStallCycles += reg.stallCycles();
        rs.renameStallNoRegCycles += core.renameStallNoRegCycles();
        if (reg.regionCount() > 0) {
            region_stores += reg.avgStoresPerRegion();
            region_others += reg.avgOthersPerRegion();
            ++cores_with_regions;
        }
        rs.freeIntHist.merge(core.freeIntRegHistogram());
        rs.freeFpHist.merge(core.freeFpRegHistogram());
        rs.coalescedStores +=
            system.memory().writeBuffer(c).coalescedStores();
        rs.persistOps += system.memory().writeBuffer(c).persistOps();
    }
    if (cores_with_regions) {
        rs.avgRegionStores = region_stores / cores_with_regions;
        rs.avgRegionOthers = region_others / cores_with_regions;
    }
    // Stall counters accumulate per core but cycles count wall-clock:
    // normalize to per-core stalls.
    rs.boundaryStallCycles /= threads;
    rs.renameStallNoRegCycles /= threads;

    rs.ipc = rs.totalCycles
                 ? static_cast<double>(rs.committedInsts) /
                       static_cast<double>(rs.totalCycles)
                 : 0.0;

    rs.nvmWrites = system.memory().nvm().writeCount();
    rs.nvmReads = system.memory().nvm().readCount();
    rs.nvmBytesWritten = system.memory().nvm().bytesWritten();
    rs.wpqStallCycles = system.memory().nvm().wpqStallCycles();
    rs.l2MissRatio = system.memory().l2MissRatio();

    if (telemetry)
        rs.telemetry = telemetry->harvest();

    for (const auto &auditor : auditors) {
        rs.auditEvents += auditor->eventCount();
        rs.auditViolations += auditor->violationCount();
        for (const check::AuditViolation &v : auditor->violations()) {
            if (rs.auditMessages.size() >= 16)
                break;
            rs.auditMessages.push_back(
                v.where.describe() + ": " + v.what);
        }
    }
    return rs;
}

double
slowdown(const RunStats &test, const RunStats &baseline)
{
    PPA_ASSERT(baseline.cycles > 0, "baseline did not run");
    return static_cast<double>(test.cycles) /
           static_cast<double>(baseline.cycles);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace ppa
