#include "sim/segment.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "check/auditor.hh"
#include "common/logging.hh"
#include "workload/generator.hh"

namespace ppa
{

namespace
{

/**
 * Snapshot of every monotonic counter the stitcher needs, taken twice
 * per segment (at warmup end and at segment end) so the measured
 * window's contribution is the difference. All fields are either
 * monotonically increasing counters or merged histograms of such, so
 * end - warm is exact.
 */
struct SegmentCounters
{
    std::uint64_t committedInsts = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t regionCount = 0;
    std::uint64_t boundaryStall = 0;
    std::uint64_t renameStall = 0;

    // Per-core region sums (Average only exposes mean/count, so the
    // additive sum is reconstructed as mean * count; both snapshots
    // reconstruct identically, keeping the delta deterministic).
    std::vector<std::uint64_t> coreRegionCount;
    std::vector<double> coreRegionStoreSum;
    std::vector<double> coreRegionOtherSum;

    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmReads = 0;
    std::uint64_t nvmBytes = 0;
    std::uint64_t wpqStall = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t persist = 0;

    stats::Histogram freeInt;
    stats::Histogram freeFp;
};

SegmentCounters
captureCounters(System &system, const SystemConfig &sc)
{
    SegmentCounters c;
    c.committedInsts = system.totalCommitted();
    c.freeInt = stats::Histogram(sc.core.intPrfEntries);
    c.freeFp = stats::Histogram(sc.core.fpPrfEntries);
    for (unsigned k = 0; k < system.numCores(); ++k) {
        const Core &core = system.core(k);
        c.committedStores += core.committedStores();
        const RegionStats &reg = core.regionStats();
        c.coreRegionCount.push_back(reg.regionCount());
        c.coreRegionStoreSum.push_back(
            reg.avgStoresPerRegion() *
            static_cast<double>(reg.regionCount()));
        c.coreRegionOtherSum.push_back(
            reg.avgOthersPerRegion() *
            static_cast<double>(reg.regionCount()));
        c.regionCount += reg.regionCount();
        c.boundaryStall += reg.stallCycles();
        c.renameStall += core.renameStallNoRegCycles();
        c.freeInt.merge(core.freeIntRegHistogram());
        c.freeFp.merge(core.freeFpRegHistogram());
        c.coalesced += system.memory().writeBuffer(k).coalescedStores();
        c.persist += system.memory().writeBuffer(k).persistOps();
    }
    c.nvmWrites = system.memory().nvm().writeCount();
    c.nvmReads = system.memory().nvm().readCount();
    c.nvmBytes = system.memory().nvm().bytesWritten();
    c.wpqStall = system.memory().nvm().wpqStallCycles();
    c.l2Hits = system.memory().l2().hits();
    c.l2Misses = system.memory().l2().misses();
    return c;
}

/** Per-bin difference of two snapshots of the same histogram. */
stats::Histogram
histDelta(const stats::Histogram &end, const stats::Histogram &warm)
{
    std::vector<std::uint64_t> bins = end.binCounts();
    const std::vector<std::uint64_t> &wb = warm.binCounts();
    PPA_ASSERT(bins.size() == wb.size(),
               "histogram size mismatch in segment delta");
    for (std::size_t i = 0; i < bins.size(); ++i) {
        PPA_ASSERT(bins[i] >= wb[i],
                   "histogram bin decreased across a segment");
        bins[i] -= wb[i];
    }
    return stats::Histogram::fromBins(
        std::move(bins), end.overflowCount() - warm.overflowCount());
}

/** Everything one segment's simulation produces. */
struct SegmentOutcome
{
    SegmentCounters warm;
    SegmentCounters end;
    Cycle warmEndCycle = 0;
    Cycle endCycle = 0;
    /** Failure/replay counters accumulated by injectPowerFailure. */
    RunStats failures;
    /** Whole-segment audit coverage (warmup included: the warmup
     *  prefix is extra simulated work and the auditor checks it too —
     *  audit counters are correctness instrumentation, not timing). */
    std::uint64_t auditEvents = 0;
    std::uint64_t auditViolations = 0;
    std::vector<std::string> auditMessages;
    /** Measured-window telemetry (attached after the warmup prefix);
     *  the stitcher rebases and concatenates it. */
    obs::TelemetryResult telemetry;
};

SegmentOutcome
runSegment(const WorkloadProfile &profile, SystemVariant variant,
           const ExperimentKnobs &knobs, unsigned threads,
           const SegmentPlan::Segment &seg,
           const trace::TraceSet *traceSet,
           const std::vector<DynInstSource *> &shared)
{
    SystemConfig sc = makeSystemConfig(variant, knobs, threads);
    System system(sc);

    // Same opt-in audit wiring as the classic runner; each segment
    // gets its own oracle because its System is its own machine.
    std::vector<std::unique_ptr<check::Auditor>> auditors;
    if (knobs.audit && sc.core.mode == PersistMode::Ppa) {
        auto oracle = std::make_shared<check::StoreOracle>();
        for (unsigned t = 0; t < threads; ++t) {
            auditors.push_back(std::make_unique<check::Auditor>(
                system.core(t), system.memory(), oracle));
            system.core(t).attachObserver(auditors.back().get());
        }
    }
    PPA_ASSERT(seg.failAt.empty() || sc.core.mode == PersistMode::Ppa,
               "power-failure injection requires the PPA variant");

    // Sources: reuse the caller's cached ones when given, else build
    // fresh ones. Either way each is repositioned to the warmup start
    // and bounded at the segment end; recovery seeks (backward) pass
    // through the window to the underlying source.
    std::vector<std::unique_ptr<DynInstSource>> owned;
    std::vector<std::unique_ptr<WindowedSource>> windows;
    for (unsigned t = 0; t < threads; ++t) {
        DynInstSource *src = nullptr;
        if (!shared.empty()) {
            src = shared[t];
        } else {
            if (traceSet) {
                owned.push_back(std::make_unique<trace::TraceReplaySource>(
                    *traceSet, t));
            } else {
                owned.push_back(std::make_unique<StreamGenerator>(
                    profile, t, knobs.seed, knobs.instsPerCore));
            }
            src = owned.back().get();
        }
        src->seekTo(seg.warmupBegin);
        windows.push_back(
            std::make_unique<WindowedSource>(*src, seg.end));
        system.bindSource(t, windows.back().get());
    }

    // Runaway envelope, mirroring the classic runner's insts * 400.
    Cycle cap = std::max<Cycle>((seg.end - seg.warmupBegin) * 400, 400);

    // Re-converge microarchitectural state over the warmup prefix,
    // then snapshot every counter so warmup work can be subtracted.
    std::uint64_t warmupTotal = (seg.begin - seg.warmupBegin) * threads;
    SegmentOutcome out;
    while (!system.allDone() && system.cycle() < cap &&
           system.totalCommitted() < warmupTotal) {
        system.tick();
    }
    out.warmEndCycle = system.cycle();
    out.warm = captureCounters(system, sc);

    // Telemetry covers only the measured window: attach after the
    // discarded warmup prefix so stitched series line up with the
    // stitched cycle axis.
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

    if (seg.failAt.empty()) {
        system.run(cap);
    } else {
        // Segment-relative failure schedule: cycle 0 fires before the
        // first measured tick, i.e. exactly at the segment join.
        std::size_t next_fail = 0;
        while (!system.allDone() && system.cycle() < cap) {
            if (next_fail < seg.failAt.size() &&
                system.cycle() - out.warmEndCycle >=
                    seg.failAt[next_fail]) {
                ++next_fail;
                detail::injectPowerFailure(system, auditors,
                                           out.failures);
            }
            system.tick();
        }
        system.run(cap);
    }
    out.endCycle = system.cycle();
    out.end = captureCounters(system, sc);
    if (telemetry)
        out.telemetry = telemetry->harvest();

    for (const auto &auditor : auditors) {
        out.auditEvents += auditor->eventCount();
        out.auditViolations += auditor->violationCount();
        for (const check::AuditViolation &v : auditor->violations()) {
            if (out.auditMessages.size() >= 16)
                break;
            out.auditMessages.push_back(
                v.where.describe() + ": " + v.what);
        }
    }
    return out;
}

} // namespace

SegmentPlan
planSegments(const ExperimentKnobs &knobs)
{
    PPA_ASSERT(knobs.timeParallel >= 2,
               "planSegments requires timeParallel >= 2");
    PPA_ASSERT(knobs.instsPerCore > 0,
               "time-parallel run needs instsPerCore > 0");
    std::uint64_t insts = knobs.instsPerCore;
    // More segments than instructions would leave empty measured
    // windows; clamp so every segment measures at least one.
    std::uint64_t k = std::min<std::uint64_t>(knobs.timeParallel, insts);
    unsigned stride = std::max(1u, knobs.tpSampleStride);

    SegmentPlan plan;
    plan.warmupInsts = knobs.tpWarmupInsts;
    plan.sampleStride = stride;
    std::uint64_t base = insts / k;
    std::uint64_t rem = insts % k;
    std::uint64_t begin = 0;
    for (std::uint64_t s = 0; s < k; ++s) {
        SegmentPlan::Segment seg;
        seg.begin = begin;
        seg.end = begin + base + (s < rem ? 1 : 0);
        seg.warmupBegin = seg.begin > knobs.tpWarmupInsts
                              ? seg.begin - knobs.tpWarmupInsts
                              : 0;
        seg.simulated = (s % stride) == 0;
        plan.segments.push_back(seg);
        begin = seg.end;
    }
    for (const ExperimentKnobs::SegmentFailure &f : knobs.tpFailAt) {
        if (f.segment >= plan.segments.size()) {
            fatal("tpFailAt names segment ", f.segment,
                  " but the plan has only ", plan.segments.size(),
                  " segment(s)");
        }
        if (!plan.segments[f.segment].simulated) {
            fatal("tpFailAt names segment ", f.segment,
                  ", which sampling stride ", stride, " skips");
        }
        plan.segments[f.segment].failAt.push_back(f.cycle);
    }
    for (SegmentPlan::Segment &seg : plan.segments)
        std::sort(seg.failAt.begin(), seg.failAt.end());
    return plan;
}

std::uint64_t
SegmentSourceCache::generatorReplayedInsts() const
{
    std::uint64_t n = 0;
    for (const auto &kv : sources) {
        if (auto *g = dynamic_cast<const StreamGenerator *>(
                kv.second.get()))
            n += g->replayedInsts();
    }
    return n;
}

std::uint64_t
SegmentSourceCache::sourceSeeks() const
{
    std::uint64_t n = 0;
    for (const auto &kv : sources) {
        if (auto *g = dynamic_cast<const StreamGenerator *>(
                kv.second.get())) {
            n += g->seekCount();
        } else if (auto *r =
                       dynamic_cast<const trace::TraceReplaySource *>(
                           kv.second.get())) {
            n += r->seekCount();
        }
    }
    return n;
}

RunStats
runWorkloadTimeParallel(const WorkloadProfile &profile,
                        SystemVariant variant,
                        const ExperimentKnobs &knobs,
                        SegmentSourceCache *cache)
{
    PPA_ASSERT(knobs.timeParallel >= 2,
               "runWorkloadTimeParallel requires timeParallel >= 2");
    PPA_ASSERT(knobs.failAtCycles.empty(),
               "failAtCycles is undefined under --time-parallel: "
               "absolute stitched cycles are not known up front; "
               "use tpFailAt (segment, cycle) pairs");
    if (variant == SystemVariant::ReplayCache) {
        fatal("--time-parallel does not support the replaycache "
              "variant: its stream transform inserts instructions, so "
              "segment boundaries no longer align with committed "
              "indices");
    }
    unsigned threads = knobs.threads ? knobs.threads
                                     : profile.defaultThreads;
    SegmentPlan plan = planSegments(knobs);

    RunStats rs;
    const trace::TraceSet *traceSet = nullptr;
    trace::TraceSet localTraces;
    if (!knobs.traceDir.empty()) {
        if (cache) {
            if (!cache->traceLoaded) {
                cache->traceSet =
                    trace::TraceSet::openOrDie(knobs.traceDir);
                cache->traceLoaded = true;
            }
            traceSet = &cache->traceSet;
        } else {
            localTraces = trace::TraceSet::openOrDie(knobs.traceDir);
            traceSet = &localTraces;
        }
        const trace::TraceMeta &meta = traceSet->metadata();
        if (meta.threads != threads) {
            fatal("trace '", knobs.traceDir, "' was recorded with ",
                  meta.threads, " thread(s) but the run wants ",
                  threads);
        }
        if (meta.instsPerThread != knobs.instsPerCore) {
            fatal("trace '", knobs.traceDir, "' holds ",
                  meta.instsPerThread, " insts per thread but the run ",
                  "wants ", knobs.instsPerCore,
                  " (pass matching --insts or re-record)");
        }
        rs.traceDir = knobs.traceDir;
        rs.traceShards =
            static_cast<unsigned>(traceSet->allShards().size());
        for (unsigned t = 0; t < threads; ++t)
            rs.traceInsts += traceSet->threadInsts(t);
        rs.traceCrc = traceSet->combinedCrc();
    }

    // Cached sources are looked up (and created) before the pool
    // starts, so the map never mutates concurrently and creation
    // order is deterministic.
    std::vector<std::vector<DynInstSource *>> shared(
        plan.segments.size());
    if (cache) {
        for (unsigned s = 0; s < plan.segments.size(); ++s) {
            if (!plan.segments[s].simulated)
                continue;
            shared[s].resize(threads);
            for (unsigned t = 0; t < threads; ++t) {
                auto key = std::make_pair(s, t);
                auto it = cache->sources.find(key);
                if (it == cache->sources.end()) {
                    std::unique_ptr<DynInstSource> src;
                    if (traceSet) {
                        src = std::make_unique<
                            trace::TraceReplaySource>(*traceSet, t);
                    } else {
                        src = std::make_unique<StreamGenerator>(
                            profile, t, knobs.seed,
                            knobs.instsPerCore);
                    }
                    it = cache->sources.emplace(key, std::move(src))
                             .first;
                }
                shared[s][t] = it->second.get();
            }
        }
    }

    std::vector<unsigned> simIdx;
    for (unsigned s = 0; s < plan.segments.size(); ++s) {
        if (plan.segments[s].simulated)
            simIdx.push_back(s);
    }

    // Segment fan-out, in the sweep driver's pool style: results land
    // in slots indexed by segment, so scheduling order is invisible —
    // the time-parallel determinism contract.
    std::vector<SegmentOutcome> outcomes(plan.segments.size());
    auto runOne = [&](unsigned s) {
        outcomes[s] = runSegment(profile, variant, knobs, threads,
                                 plan.segments[s], traceSet, shared[s]);
    };
    unsigned workers =
        knobs.tpWorkers
            ? knobs.tpWorkers
            : std::max(1u, std::thread::hardware_concurrency());
    workers = std::min<unsigned>(
        workers, static_cast<unsigned>(simIdx.size()));
    if (workers <= 1) {
        for (unsigned s : simIdx)
            runOne(s);
    } else {
        std::atomic<std::size_t> cursor{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (;;) {
                    std::size_t i = cursor.fetch_add(1);
                    if (i >= simIdx.size())
                        return;
                    runOne(simIdx[i]);
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
    }

    // ---- Stitch: sum measured-window deltas in segment order. -------
    rs.workload = profile.name;
    rs.variant = variant;
    rs.threads = threads;
    rs.tpSegments = static_cast<unsigned>(plan.segments.size());
    rs.tpSimulatedSegments = static_cast<unsigned>(simIdx.size());
    rs.tpWarmupInsts = knobs.tpWarmupInsts;
    rs.tpSampleStride = plan.sampleStride;

    SystemConfig sc = makeSystemConfig(variant, knobs, threads);
    rs.freeIntHist = stats::Histogram(sc.core.intPrfEntries);
    rs.freeFpHist = stats::Histogram(sc.core.fpPrfEntries);

    std::vector<double> segCpi;
    std::vector<double> storeSum(threads, 0.0);
    std::vector<double> otherSum(threads, 0.0);
    std::vector<std::uint64_t> regCount(threads, 0);
    std::uint64_t l2h = 0;
    std::uint64_t l2m = 0;
    for (unsigned s : simIdx) {
        const SegmentOutcome &o = outcomes[s];
        Cycle seg_cycles = o.endCycle - o.warmEndCycle;
        // Telemetry cycles are segment-relative; rebase them onto the
        // stitched timeline at the cycles accumulated so far.
        appendTelemetry(rs.telemetry, o.telemetry, rs.cycles);
        rs.cycles += seg_cycles;
        rs.tpWarmupCycles += o.warmEndCycle;
        std::uint64_t seg_insts =
            o.end.committedInsts - o.warm.committedInsts;
        rs.committedInsts += seg_insts;
        if (seg_insts) {
            segCpi.push_back(static_cast<double>(seg_cycles) /
                             static_cast<double>(seg_insts));
        }
        rs.committedStores +=
            o.end.committedStores - o.warm.committedStores;
        rs.regionCount += o.end.regionCount - o.warm.regionCount;
        rs.boundaryStallCycles +=
            o.end.boundaryStall - o.warm.boundaryStall;
        rs.renameStallNoRegCycles +=
            o.end.renameStall - o.warm.renameStall;
        for (unsigned t = 0; t < threads; ++t) {
            regCount[t] +=
                o.end.coreRegionCount[t] - o.warm.coreRegionCount[t];
            storeSum[t] += o.end.coreRegionStoreSum[t] -
                           o.warm.coreRegionStoreSum[t];
            otherSum[t] += o.end.coreRegionOtherSum[t] -
                           o.warm.coreRegionOtherSum[t];
        }
        rs.nvmWrites += o.end.nvmWrites - o.warm.nvmWrites;
        rs.nvmReads += o.end.nvmReads - o.warm.nvmReads;
        rs.nvmBytesWritten += o.end.nvmBytes - o.warm.nvmBytes;
        rs.wpqStallCycles += o.end.wpqStall - o.warm.wpqStall;
        l2h += o.end.l2Hits - o.warm.l2Hits;
        l2m += o.end.l2Misses - o.warm.l2Misses;
        rs.coalescedStores += o.end.coalesced - o.warm.coalesced;
        rs.persistOps += o.end.persist - o.warm.persist;
        rs.freeIntHist.merge(histDelta(o.end.freeInt, o.warm.freeInt));
        rs.freeFpHist.merge(histDelta(o.end.freeFp, o.warm.freeFp));
        rs.auditEvents += o.auditEvents;
        rs.auditViolations += o.auditViolations;
        rs.powerFailures += o.failures.powerFailures;
        rs.replayAudits += o.failures.replayAudits;
        rs.replayMismatches += o.failures.replayMismatches;
        rs.replayAddrsChecked += o.failures.replayAddrsChecked;
        for (const std::string &m : o.failures.auditMessages) {
            if (rs.auditMessages.size() < 16)
                rs.auditMessages.push_back(m);
        }
        for (const std::string &m : o.auditMessages) {
            if (rs.auditMessages.size() < 16)
                rs.auditMessages.push_back(m);
        }
    }
    // Drain-boundary semantics: every stitched cycle is post-warmup
    // (per-segment warmup is discarded overlap work, reported via
    // tpWarmupCycles), so the measured window IS the whole run.
    rs.totalCycles = rs.cycles;

    double region_stores = 0.0;
    double region_others = 0.0;
    unsigned cores_with_regions = 0;
    for (unsigned t = 0; t < threads; ++t) {
        if (regCount[t] > 0) {
            region_stores +=
                storeSum[t] / static_cast<double>(regCount[t]);
            region_others +=
                otherSum[t] / static_cast<double>(regCount[t]);
            ++cores_with_regions;
        }
    }
    if (cores_with_regions) {
        rs.avgRegionStores = region_stores / cores_with_regions;
        rs.avgRegionOthers = region_others / cores_with_regions;
    }
    // Per-core stall counters vs wall-clock cycles, as in the classic
    // runner: normalize to per-core stalls.
    rs.boundaryStallCycles /= threads;
    rs.renameStallNoRegCycles /= threads;

    rs.l2MissRatio = (l2h + l2m)
                         ? static_cast<double>(l2m) /
                               static_cast<double>(l2h + l2m)
                         : 0.0;

    if (plan.sampleStride > 1) {
        // SimPoint-style extrapolation: scale additive counters by
        // planned-instructions / simulated-planned-instructions.
        // Ratios and histograms stay as measured; audit and failure
        // counters are facts about what actually ran, never scaled.
        std::uint64_t planned = 0;
        std::uint64_t sim_planned = 0;
        for (const SegmentPlan::Segment &seg : plan.segments) {
            std::uint64_t window = (seg.end - seg.begin) * threads;
            planned += window;
            if (seg.simulated)
                sim_planned += window;
        }
        double scale = sim_planned
                           ? static_cast<double>(planned) /
                                 static_cast<double>(sim_planned)
                           : 1.0;
        auto scaled = [scale](std::uint64_t v) {
            return static_cast<std::uint64_t>(
                std::llround(static_cast<double>(v) * scale));
        };
        rs.cycles = scaled(rs.cycles);
        rs.totalCycles = rs.cycles;
        rs.committedInsts = scaled(rs.committedInsts);
        rs.committedStores = scaled(rs.committedStores);
        rs.regionCount = scaled(rs.regionCount);
        rs.boundaryStallCycles = scaled(rs.boundaryStallCycles);
        rs.renameStallNoRegCycles = scaled(rs.renameStallNoRegCycles);
        rs.nvmWrites = scaled(rs.nvmWrites);
        rs.nvmReads = scaled(rs.nvmReads);
        rs.nvmBytesWritten = scaled(rs.nvmBytesWritten);
        rs.wpqStallCycles = scaled(rs.wpqStallCycles);
        rs.coalescedStores = scaled(rs.coalescedStores);
        rs.persistOps = scaled(rs.persistOps);

        // Confidence: relative standard error of per-segment CPI
        // across the simulated subset.
        if (segCpi.size() >= 2) {
            double mean = 0.0;
            for (double v : segCpi)
                mean += v;
            mean /= static_cast<double>(segCpi.size());
            double var = 0.0;
            for (double v : segCpi)
                var += (v - mean) * (v - mean);
            var /= static_cast<double>(segCpi.size() - 1);
            if (mean > 0.0) {
                rs.tpCpiRelStderr =
                    std::sqrt(var /
                              static_cast<double>(segCpi.size())) /
                    mean;
            }
        }
    }

    rs.ipc = rs.totalCycles
                 ? static_cast<double>(rs.committedInsts) /
                       static_cast<double>(rs.totalCycles)
                 : 0.0;
    return rs;
}

std::vector<StatDelta>
statDeltas(const RunStats &serial, const RunStats &segmented)
{
    // Whole-run counters only: the classic runner's `cycles` excludes
    // its warmupFraction window while a segmented run measures the
    // whole stream, so totalCycles (whole run in both) is the
    // comparable time axis.
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"totalCycles", u(serial.totalCycles), u(segmented.totalCycles)},
        {"ipc", serial.ipc, segmented.ipc},
        {"committedInsts", u(serial.committedInsts),
         u(segmented.committedInsts)},
        {"committedStores", u(serial.committedStores),
         u(segmented.committedStores)},
        {"avgRegionStores", serial.avgRegionStores,
         segmented.avgRegionStores},
        {"avgRegionOthers", serial.avgRegionOthers,
         segmented.avgRegionOthers},
        {"regionCount", u(serial.regionCount), u(segmented.regionCount)},
        {"boundaryStallCycles", u(serial.boundaryStallCycles),
         u(segmented.boundaryStallCycles)},
        {"renameStallNoRegCycles", u(serial.renameStallNoRegCycles),
         u(segmented.renameStallNoRegCycles)},
        {"nvmWrites", u(serial.nvmWrites), u(segmented.nvmWrites)},
        {"nvmReads", u(serial.nvmReads), u(segmented.nvmReads)},
        {"nvmBytesWritten", u(serial.nvmBytesWritten),
         u(segmented.nvmBytesWritten)},
        {"wpqStallCycles", u(serial.wpqStallCycles),
         u(segmented.wpqStallCycles)},
        {"l2MissRatio", serial.l2MissRatio, segmented.l2MissRatio},
        {"coalescedStores", u(serial.coalescedStores),
         u(segmented.coalescedStores)},
        {"persistOps", u(serial.persistOps), u(segmented.persistOps)},
    };
}

} // namespace ppa
