#include "sim/figures.hh"

#include <cstdarg>
#include <cstdio>
#include <functional>

#include "common/logging.hh"
#include "energy/cost_model.hh"

namespace ppa
{

namespace
{

constexpr std::uint64_t defaultInsts = 15'000;

/** Incremental grid builder shared by the figure definitions. */
struct GridBuilder
{
    std::uint64_t insts;
    std::uint64_t seed;
    std::vector<SweepJob> jobs;

    ExperimentKnobs
    baseKnobs() const
    {
        ExperimentKnobs k;
        k.instsPerCore = insts;
        k.seed = seed;
        return k;
    }

    void
    add(const WorkloadProfile &profile, SystemVariant variant,
        const ExperimentKnobs &knobs)
    {
        jobs.push_back({profile, variant, knobs});
    }

    /** profiles x variants at the base knobs. */
    void
    cross(const std::vector<WorkloadProfile> &profiles,
          std::initializer_list<SystemVariant> variants,
          const ExperimentKnobs &knobs)
    {
        for (const auto &p : profiles)
            for (SystemVariant v : variants)
                add(p, v, knobs);
    }
};

/** Matches the knobs of one grid point of a figure. */
using KnobMatch = std::function<bool(const ExperimentKnobs &)>;

/** The run of @p app on @p variant among a sweep's @p results whose
 *  knobs satisfy @p at (any knobs when @p at is empty). */
const RunStats &
runOf(const std::vector<JobResult> &results, const std::string &app,
      SystemVariant variant, const KnobMatch &at = {})
{
    for (const JobResult &r : results)
        if (r.job.profile.name == app && r.job.variant == variant &&
            (!at || at(r.job.knobs)))
            return r.stats;
    fatal("figure reducer: no ", variantToken(variant), " run of ", app,
          " in the sweep results");
}

std::string
strprintf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
strprintf(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

std::vector<WorkloadProfile>
profilesNamed(const std::vector<std::string> &names)
{
    std::vector<WorkloadProfile> out;
    for (const auto &name : names)
        out.push_back(profileByName(name));
    return out;
}

/**
 * One row per app: name, suite, optionally its documented L2 miss
 * rate, then the slowdown of each @p tests variant over @p base; a
 * geomean row closes the table.
 */
void
slowdownRows(FigureTable &f, const std::vector<JobResult> &runs,
             const std::vector<WorkloadProfile> &apps, SystemVariant base,
             std::initializer_list<SystemVariant> tests,
             bool l2MissColumn = false)
{
    std::vector<std::vector<double>> slow(tests.size());
    for (const auto &p : apps) {
        std::vector<std::string> row{p.name, suiteName(p.suite)};
        if (l2MissColumn)
            row.push_back(TextTable::percent(p.documentedL2Miss, 0));
        const RunStats &b = runOf(runs, p.name, base);
        std::size_t i = 0;
        for (SystemVariant v : tests) {
            double s = slowdown(runOf(runs, p.name, v), b);
            slow[i++].push_back(s);
            row.push_back(TextTable::factor(s));
        }
        f.table.addRow(std::move(row));
    }
    std::vector<std::string> summary{"geomean", "-"};
    if (l2MissColumn)
        summary.push_back("-");
    for (const auto &s : slow)
        summary.push_back(TextTable::factor(geomean(s)));
    f.table.addRow(std::move(summary));
}

/**
 * One row per app with PPA's slowdown over memory mode at each of
 * @p points grid points (@p at(knobs, i) picks point i); a geomean
 * row closes the table.
 */
void
pointRows(FigureTable &f, const std::vector<JobResult> &runs,
          const std::vector<std::string> &apps, std::size_t points,
          const std::function<bool(const ExperimentKnobs &, std::size_t)>
              &at)
{
    std::vector<std::vector<double>> slow(points);
    for (const auto &app : apps) {
        std::vector<std::string> row{app};
        for (std::size_t i = 0; i < points; ++i) {
            KnobMatch point = [&](const ExperimentKnobs &k) {
                return at(k, i);
            };
            double s =
                slowdown(runOf(runs, app, SystemVariant::Ppa, point),
                         runOf(runs, app, SystemVariant::MemoryMode, point));
            slow[i].push_back(s);
            row.push_back(TextTable::factor(s));
        }
        f.table.addRow(std::move(row));
    }
    std::vector<std::string> summary{"geomean"};
    for (const auto &s : slow)
        summary.push_back(TextTable::factor(geomean(s)));
    f.table.addRow(std::move(summary));
}

/** Adds the memory-mode and PPA jobs of every app at one knob point
 *  of a sensitivity sweep. */
void
crossSweepApps(GridBuilder &g, const ExperimentKnobs &k)
{
    g.cross(profilesNamed(sweepAppNames()),
            {SystemVariant::MemoryMode, SystemVariant::Ppa}, k);
}

constexpr unsigned fig15Wpq[] = {8, 16, 24};
constexpr unsigned fig16Prf[][2] = {{80, 80},   {100, 100}, {120, 120},
                                    {140, 140}, {180, 168}, {280, 224}};
constexpr unsigned fig17Csq[] = {10, 20, 30, 40, 50};
constexpr double fig18Gbps[] = {1.0, 2.3, 4.0, 6.0};
constexpr unsigned fig19Threads[] = {8, 16, 32, 64};

/** A representative MT subset (all 19 MT apps at 64 threads would
 *  dominate the whole evaluation's runtime). */
const std::vector<std::string> fig19Apps{"rb",       "tpcc",  "r20w80",
                                         "water-ns", "ocean", "genome"};
const std::vector<std::string> ablationApps{"gcc", "hmmer",    "lbm",
                                            "rb",  "water-ns", "tpcc"};

/** Ablation knob points: the PRF shrunk to compiler-short regions,
 *  and persist coalescing switched off. */
bool
tinyPrf(const ExperimentKnobs &k)
{
    return k.intPrf == 80;
}

bool
noCoalescing(const ExperimentKnobs &k)
{
    return k.wbCoalesceWindow == 0;
}

std::string
sci(double v, const char *unit)
{
    return v >= 1e-3 ? strprintf("%.3g m%s", v * 1e3, unit)
                     : strprintf("%.3g u%s", v * 1e6, unit);
}

struct FigureDef
{
    const char *name;
    const char *description;
    void (*build)(GridBuilder &);
    FigureTable (*reduce)(const std::vector<JobResult> &);
};

const FigureDef figureDefs[] = {
    {"fig01", "ReplayCache slowdown vs PMEM memory mode",
     [](GridBuilder &g) {
         g.cross(profilesNamed(sweepAppNames()),
                 {SystemVariant::MemoryMode, SystemVariant::ReplayCache},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{"Figure 1: ReplayCache slowdown vs PMEM memory "
                       "mode (lower is better)",
                       "Paper: ~5x average slowdown across the suites.",
                       TextTable({"app", "suite", "ReplayCache"})};
         slowdownRows(f, runs, profilesNamed(sweepAppNames()),
                      SystemVariant::MemoryMode,
                      {SystemVariant::ReplayCache});
         return f;
     }},
    {"fig05", "free INT/FP physical-register CDFs on the baseline",
     [](GridBuilder &g) {
         g.cross(allProfiles(), {SystemVariant::MemoryMode},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 5: free physical registers (baseline, sampled per "
             "cycle)",
             "Columns: registers still free at the 25th percentile of "
             "cycles (i.e. 75% of cycles have at least this many free). "
             "Paper: CPU2006 has 138 INT / 110 FP free for 75% of "
             "cycles.",
             TextTable({"suite", "INT free @75% cycles",
                        "FP free @75% cycles", "INT mean free",
                        "FP mean free"})};
         const ExperimentKnobs knobs;
         for (Suite suite : {Suite::Cpu2006, Suite::Cpu2017,
                             Suite::Splash3, Suite::Whisper, Suite::Stamp,
                             Suite::MiniApps}) {
             stats::Histogram intHist(knobs.intPrf);
             stats::Histogram fpHist(knobs.fpPrf);
             for (const auto &p : profilesOfSuite(suite)) {
                 const RunStats &rs =
                     runOf(runs, p.name, SystemVariant::MemoryMode);
                 intHist.merge(rs.freeIntHist);
                 fpHist.merge(rs.freeFpHist);
             }
             // "75% of cycles have >= N free" is the 25th percentile
             // of the free-count distribution.
             f.table.addRow(
                 {suiteName(suite),
                  std::to_string(intHist.percentile(0.25)),
                  std::to_string(fpHist.percentile(0.25)),
                  TextTable::num(intHist.mean(), 1),
                  TextTable::num(fpHist.mean(), 1)});
         }
         return f;
     }},
    {"fig08", "PPA and Capri slowdown vs memory mode, all 41 apps",
     [](GridBuilder &g) {
         g.cross(allProfiles(),
                 {SystemVariant::MemoryMode, SystemVariant::Ppa,
                  SystemVariant::Capri},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{"Figure 8: normalized slowdown vs PMEM memory "
                       "mode (lower is better)",
                       "Paper: PPA ~1.02x mean, Capri ~1.26x mean; rb "
                       "is PPA's worst case.",
                       TextTable({"app", "suite", "PPA", "Capri"})};
         slowdownRows(f, runs, allProfiles(), SystemVariant::MemoryMode,
                      {SystemVariant::Ppa, SystemVariant::Capri});
         return f;
     }},
    {"fig09", "memory mode and PPA slowdown vs a DRAM-only system",
     [](GridBuilder &g) {
         g.cross(allProfiles(),
                 {SystemVariant::DramOnly, SystemVariant::MemoryMode,
                  SystemVariant::Ppa},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 9: normalized slowdown vs a DRAM-only volatile "
             "system",
             "Paper: memory mode ~1.14x, PPA ~1.16x mean; lbm/pc worst "
             "(1.44x/1.58x) due to poor locality.",
             TextTable({"app", "suite", "memory-mode", "PPA"})};
         slowdownRows(f, runs, allProfiles(), SystemVariant::DramOnly,
                      {SystemVariant::MemoryMode, SystemVariant::Ppa});
         return f;
     }},
    {"fig10", "PPA vs ideal PSP (eADR/BBB) on memory-intensive apps",
     [](GridBuilder &g) {
         g.cross(memoryIntensiveProfiles(),
                 {SystemVariant::MemoryMode, SystemVariant::Ppa,
                  SystemVariant::EadrBbb},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 10: slowdown vs PMEM memory mode — PPA vs ideal "
             "PSP (eADR/BBB)",
             "Paper: PPA ~1.03x, eADR/BBB ~1.39x mean (up to 2.4x on "
             "libquantum); rb is the one case where BBB edges out PPA.",
             TextTable({"app", "suite", "L2 miss (doc.)", "PPA",
                        "eADR/BBB"})};
         slowdownRows(f, runs, memoryIntensiveProfiles(),
                      SystemVariant::MemoryMode,
                      {SystemVariant::Ppa, SystemVariant::EadrBbb},
                      /*l2MissColumn=*/true);
         return f;
     }},
    {"fig11", "region-end stall cycles as a fraction of execution",
     [](GridBuilder &g) {
         g.cross(allProfiles(), {SystemVariant::Ppa}, g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 11: region-end stall cycles as a fraction of "
             "execution",
             "Paper: ~0.21% average; water-ns 6.1% and water-sp 8.1% "
             "are the worst (store-dense, shorter regions).",
             TextTable({"app", "suite", "stall ratio", "regions",
                        "avg stall/region"})};
         double ratioSum = 0.0;
         unsigned ratioCount = 0;
         for (const auto &p : allProfiles()) {
             const RunStats &ppa = runOf(runs, p.name, SystemVariant::Ppa);
             double ratio = ppa.boundaryStallRatio();
             ratioSum += ratio;
             ++ratioCount;
             double perRegion =
                 ppa.regionCount
                     ? static_cast<double>(ppa.boundaryStallCycles) /
                           static_cast<double>(ppa.regionCount)
                     : 0.0;
             f.table.addRow({p.name, suiteName(p.suite),
                             TextTable::percent(ratio, 2),
                             std::to_string(ppa.regionCount),
                             TextTable::num(perRegion, 1)});
         }
         f.table.addRow(
             {"mean", "-",
              TextTable::percent(ratioCount ? ratioSum / ratioCount : 0.0,
                                 2),
              "-", "-"});
         return f;
     }},
    {"fig12", "extra rename stalls (no free phys reg) under PPA",
     [](GridBuilder &g) {
         g.cross(allProfiles(),
                 {SystemVariant::MemoryMode, SystemVariant::Ppa},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 12: extra rename stalls (no free phys reg) under "
             "PPA",
             "Paper: +0.07% of cycles on average.",
             TextTable({"app", "suite", "baseline stall", "PPA stall",
                        "increase"})};
         double increaseSum = 0.0;
         unsigned increaseCount = 0;
         for (const auto &p : allProfiles()) {
             double base =
                 runOf(runs, p.name, SystemVariant::MemoryMode)
                     .renameStallRatio();
             double ppa =
                 runOf(runs, p.name, SystemVariant::Ppa).renameStallRatio();
             increaseSum += ppa - base;
             ++increaseCount;
             f.table.addRow({p.name, suiteName(p.suite),
                             TextTable::percent(base, 3),
                             TextTable::percent(ppa, 3),
                             TextTable::percent(ppa - base, 3)});
         }
         f.table.addRow(
             {"mean", "-", "-", "-",
              TextTable::percent(
                  increaseCount ? increaseSum / increaseCount : 0.0, 3)});
         return f;
     }},
    {"fig13", "dynamic region size (stores/others per region)",
     [](GridBuilder &g) {
         g.cross(allProfiles(), {SystemVariant::Ppa}, g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 13: dynamic region size (instructions per region)",
             "Paper: ~301 others + ~18 stores per region on average; "
             "Capri's regions are ~29 instructions (~11x shorter).",
             TextTable({"app", "suite", "stores/region", "others/region",
                        "total/region"})};
         double storeSum = 0.0;
         double otherSum = 0.0;
         unsigned count = 0;
         for (const auto &p : allProfiles()) {
             const RunStats &ppa = runOf(runs, p.name, SystemVariant::Ppa);
             storeSum += ppa.avgRegionStores;
             otherSum += ppa.avgRegionOthers;
             ++count;
             f.table.addRow(
                 {p.name, suiteName(p.suite),
                  TextTable::num(ppa.avgRegionStores, 1),
                  TextTable::num(ppa.avgRegionOthers, 1),
                  TextTable::num(
                      ppa.avgRegionStores + ppa.avgRegionOthers, 1)});
         }
         if (count)
             f.table.addRow({"mean", "-",
                             TextTable::num(storeSum / count, 1),
                             TextTable::num(otherSum / count, 1),
                             TextTable::num((storeSum + otherSum) / count,
                                            1)});
         f.table.addRow({"(Capri compiler regions)", "-", "-", "-", "29"});
         return f;
     }},
    {"fig14", "PPA slowdown with a shared L3 atop the DRAM cache",
     [](GridBuilder &g) {
         ExperimentKnobs k = g.baseKnobs();
         k.l3Cache = true;
         g.cross(allProfiles(),
                 {SystemVariant::MemoryMode, SystemVariant::Ppa}, k);
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{"Figure 14: PPA slowdown with an L3 atop the DRAM "
                       "cache",
                       "Paper: ~1.01x mean — region length covers the "
                       "deeper persist path.",
                       TextTable({"app", "suite", "PPA (with L3)"})};
         slowdownRows(f, runs, allProfiles(), SystemVariant::MemoryMode,
                      {SystemVariant::Ppa});
         return f;
     }},
    {"fig15", "PPA slowdown vs WPQ size (8/16/24 entries)",
     [](GridBuilder &g) {
         for (unsigned wpq : fig15Wpq) {
             ExperimentKnobs k = g.baseKnobs();
             k.wpqEntries = wpq;
             crossSweepApps(g, k);
         }
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 15: PPA slowdown vs WPQ size (8 / 16 / 24 entries)",
             "Paper: WPQ-8 ~1.08x mean; rb/water-ns/water-sp most "
             "sensitive; WPQ-16 (default) absorbs the traffic.",
             TextTable({"app", "WPQ-8", "WPQ-16", "WPQ-24"})};
         pointRows(f, runs, sweepAppNames(), std::size(fig15Wpq),
                   [](const ExperimentKnobs &k, std::size_t i) {
                       return k.wpqEntries == fig15Wpq[i];
                   });
         return f;
     }},
    {"fig16", "PPA slowdown vs PRF size (80/80 .. 280/224)",
     [](GridBuilder &g) {
         for (const auto &p : fig16Prf) {
             ExperimentKnobs k = g.baseKnobs();
             k.intPrf = p[0];
             k.fpPrf = p[1];
             crossSweepApps(g, k);
         }
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 16: PPA slowdown vs PRF size (INT/FP entries)",
             "Paper: 80/80 ~1.12x mean, default 180/168 ~1.02x, "
             "benefits saturate beyond the default (Icelake 280/224).",
             TextTable({"app", "80/80", "100/100", "120/120", "140/140",
                        "180/168 (default)", "280/224 (Icelake)"})};
         pointRows(f, runs, sweepAppNames(), std::size(fig16Prf),
                   [](const ExperimentKnobs &k, std::size_t i) {
                       return k.intPrf == fig16Prf[i][0] &&
                              k.fpPrf == fig16Prf[i][1];
                   });
         return f;
     }},
    {"fig17", "PPA slowdown vs CSQ size (10..50 entries)",
     [](GridBuilder &g) {
         for (unsigned csq : fig17Csq) {
             ExperimentKnobs k = g.baseKnobs();
             k.csqEntries = csq;
             crossSweepApps(g, k);
         }
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 17: PPA slowdown vs CSQ size (10..50 entries)",
             "Paper: minimal impact; 40 entries (default) make CSQ "
             "overflow rare.",
             TextTable({"app", "CSQ-10", "CSQ-20", "CSQ-30",
                        "CSQ-40 (default)", "CSQ-50"})};
         pointRows(f, runs, sweepAppNames(), std::size(fig17Csq),
                   [](const ExperimentKnobs &k, std::size_t i) {
                       return k.csqEntries == fig17Csq[i];
                   });
         return f;
     }},
    {"fig18", "PPA slowdown vs NVM write bandwidth (1..6 GB/s)",
     [](GridBuilder &g) {
         for (double bw : fig18Gbps) {
             ExperimentKnobs k = g.baseKnobs();
             k.nvmWriteGbps = bw;
             crossSweepApps(g, k);
         }
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{"Figure 18: PPA slowdown vs NVM write bandwidth",
                       "Paper: ~1.07x at 1 GB/s, ~1.02x at >= 2.3 GB/s "
                       "(default); rb/water most sensitive.",
                       TextTable({"app", "1 GB/s", "2.3 GB/s (default)",
                                  "4 GB/s", "6 GB/s"})};
         pointRows(f, runs, sweepAppNames(), std::size(fig18Gbps),
                   [](const ExperimentKnobs &k, std::size_t i) {
                       return k.nvmWriteGbps == fig18Gbps[i];
                   });
         return f;
     }},
    {"fig19", "PPA slowdown vs thread count (MT suites, 8..64T)",
     [](GridBuilder &g) {
         for (unsigned threads : fig19Threads) {
             ExperimentKnobs k = g.baseKnobs();
             k.threads = threads;
             // Keep total simulated work bounded as threads scale.
             k.instsPerCore = std::min<std::uint64_t>(k.instsPerCore,
                                                      8'000);
             g.cross(profilesNamed(fig19Apps),
                     {SystemVariant::MemoryMode, SystemVariant::Ppa}, k);
         }
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Figure 19: PPA slowdown vs thread count (MT suites)",
             "Paper: ~1.02x-1.06x mean for 8..64 threads; "
             "water-ns/water-sp and r20w80 grow slightly with threads.",
             TextTable({"app", "8T", "16T", "32T", "64T"})};
         pointRows(f, runs, fig19Apps, std::size(fig19Threads),
                   [](const ExperimentKnobs &k, std::size_t i) {
                       return k.threads == fig19Threads[i];
                   });
         return f;
     }},
    {"table01", "CLWB vs PPA store-queue pressure demonstration",
     [](GridBuilder &g) {
         g.cross({profileByName("hmmer")},
                 {SystemVariant::MemoryMode, SystemVariant::ReplayCache,
                  SystemVariant::Ppa},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Table 1: CLWB vs PPA's asynchronous store writeback",
             "Qualitative rows from the paper, plus a measured "
             "store-queue pressure demonstration below.",
             TextTable({"property", "CLWB (x86)", "PPA"})};
         f.table.addRow({"store queue entry occupied", "yes", "no"});
         f.table.addRow({"tracks each individual store", "yes",
                         "no (counter register)"});
         f.table.addRow({"requires inter-core snooping", "yes", "no"});
         f.table.addRow({"reaches NVM through DRAM cache", "no", "yes"});
         // The store-queue occupancy claim, measured: the same
         // workload under ReplayCache (clwb per store) vs PPA.
         const RunStats &base =
             runOf(runs, "hmmer", SystemVariant::MemoryMode);
         f.table.addRow(
             {"measured slowdown (hmmer)",
              TextTable::factor(slowdown(
                  runOf(runs, "hmmer", SystemVariant::ReplayCache), base)),
              TextTable::factor(
                  slowdown(runOf(runs, "hmmer", SystemVariant::Ppa), base))});
         return f;
     }},
    {"table04", "PPA structure area/latency/energy (analytical model)",
     [](GridBuilder &) {},
     [](const std::vector<JobResult> &) {
         FigureTable f{"Table 4: PPA hardware overheads (22 nm)",
                       "Paper: 0.005% of an 11.85 mm^2 Xeon core in "
                       "total.",
                       TextTable({"structure", "area (um^2)",
                                  "paper area", "access latency (ns)",
                                  "dynamic access (pJ)"})};
         const char *paperArea[] = {"12.20", "74.03", "547.84"};
         int i = 0;
         double totalArea = 0.0;
         for (const auto &[s, c] : energy::ppaStructureCosts()) {
             f.table.addRow({s.name, TextTable::num(c.areaUm2, 2),
                             paperArea[i++],
                             TextTable::num(c.accessLatencyNs, 3),
                             TextTable::num(c.dynamicAccessPj, 5)});
             totalArea += c.areaUm2;
         }
         f.footer = strprintf("total area: %.2f um^2 = %.4f%% of core area "
                           "(paper: 0.005%%)\n",
                           totalArea, energy::ppaAreaRatio() * 100.0);
         f.extra = {{"totalAreaUm2", totalArea},
                    {"coreAreaRatio", energy::ppaAreaRatio()}};
         return f;
     }},
    {"table05", "JIT-flush energy and backup sizing (analytical model)",
     [](GridBuilder &) {},
     [](const std::vector<JobResult> &) {
         using namespace energy;
         FigureTable f{
             "Table 5: energy requirement for JIT flushing",
             "Paper: PPA 21.7 uJ / 0.06 mm^3, Capri 0.6 mJ / 1.57 mm^3, "
             "LightPC 189 mJ / 527.8 mm^3; eADR 550 mJ, BBB 775 uJ.",
             TextTable({"scheme", "flush bytes", "energy",
                        "supercap (mm^3)", "Li-thin (mm^3)",
                        "supercap/core ratio"})};
         auto ppaReq = backupForBytes(ppaWorstCaseCheckpointBytes());
         auto capriReq = backupForBytes(capriFlushBytes());
         auto lightPcReq = backupForBytes(lightPcFlushBytes());
         f.table.addRow({"PPA (WSP)",
                         std::to_string(ppaWorstCaseCheckpointBytes()),
                         sci(ppaReq.energyJ, "J"),
                         TextTable::num(ppaReq.superCapMm3, 3),
                         TextTable::num(ppaReq.liThinMm3, 4),
                         TextTable::num(ppaReq.superCapRatioToCore, 4)});
         f.table.addRow({"Capri (WSP)", std::to_string(capriFlushBytes()),
                         sci(capriReq.energyJ, "J"),
                         TextTable::num(capriReq.superCapMm3, 2),
                         TextTable::num(capriReq.liThinMm3, 3),
                         TextTable::num(capriReq.superCapRatioToCore, 3)});
         f.table.addRow({"LightPC (PSP)",
                         std::to_string(lightPcFlushBytes()),
                         sci(lightPcReq.energyJ, "J"),
                         TextTable::num(lightPcReq.superCapMm3, 1),
                         TextTable::num(lightPcReq.liThinMm3, 2),
                         TextTable::num(lightPcReq.superCapRatioToCore,
                                        2)});
         f.table.addRow({"eADR (socket)", "-", sci(eadrEnergyJ(), "J"),
                         "-", "-", "-"});
         f.table.addRow({"BBB persist buffers", "-",
                         sci(bbbEnergyJ(), "J"), "-", "-", "-"});
         auto timing = checkpointTiming(ppaWorstCaseCheckpointBytes());
         f.footer =
             "Section 7.13 checkpoint timing (paper: 114.9 ns read + "
             "0.91 us flush for 1838 B):\n" +
             strprintf("  controller read:  %.1f ns (8 B/cycle at 2 GHz)\n",
                    timing.readTimeNs) +
             strprintf("  PMEM flush:       %.2f us (at 2.3 GB/s)\n",
                    timing.flushTimeUs);
         f.extra = {{"ppaEnergyJ", ppaReq.energyJ},
                    {"capriEnergyJ", capriReq.energyJ},
                    {"lightPcEnergyJ", lightPcReq.energyJ},
                    {"eadrEnergyJ", eadrEnergyJ()},
                    {"bbbEnergyJ", bbbEnergyJ()},
                    {"checkpointReadNs", timing.readTimeNs},
                    {"checkpointFlushUs", timing.flushTimeUs}};
         return f;
     }},
    {"table06", "PPA vs prior WSP schemes, measured columns",
     [](GridBuilder &g) {
         g.cross({profileByName("gcc")},
                 {SystemVariant::MemoryMode, SystemVariant::Ppa,
                  SystemVariant::Capri, SystemVariant::ReplayCache},
                 g.baseKnobs());
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{"Table 6: PPA vs prior WSP approaches", "",
                       TextTable({"criterion", "WSP [Narayanan]", "Capri",
                                  "ReplayCache", "PPA"})};
         f.table.addRow({"hardware complexity", "extremely high (UPS)",
                         "high", "no", "low"});
         f.table.addRow({"energy requirement", "extremely high", "high",
                         "low", "low"});
         f.table.addRow({"recompilation", "no", "yes", "yes", "no"});
         f.table.addRow({"transparency", "yes", "yes", "yes", "yes"});
         f.table.addRow({"enables DRAM cache", "yes", "yes", "no", "yes"});
         f.table.addRow({"enables multi-MCs", "yes", "no", "yes", "yes"});
         const RunStats &base = runOf(runs, "gcc", SystemVariant::MemoryMode);
         auto over = [&](SystemVariant v) {
             return slowdown(runOf(runs, "gcc", v), base);
         };
         f.footer = strprintf(
             "Measured on this repo's models (gcc): PPA %.2fx, Capri "
             "%.2fx, ReplayCache %.2fx; JIT energy PPA %.1f uJ vs Capri "
             "%.2f mJ.\n",
             over(SystemVariant::Ppa), over(SystemVariant::Capri),
             over(SystemVariant::ReplayCache),
             energy::backupForBytes(energy::ppaWorstCaseCheckpointBytes())
                     .energyJ *
                 1e6,
             energy::backupForBytes(energy::capriFlushBytes()).energyJ *
                 1e3);
         return f;
     }},
    // Persist coalescing (Section 4.3) is ablated by disabling the
    // write-combining window, asynchronous persistence by ReplayCache
    // (per-store clwb makes it synchronous), and dynamic PRF-sized
    // regions by a deliberately small PRF.
    {"ablation", "PPA design-choice ablation grid",
     [](GridBuilder &g) {
         ExperimentKnobs base = g.baseKnobs();
         ExperimentKnobs nocoal = base;
         nocoal.wbCoalesceWindow = 0;
         ExperimentKnobs tiny = base;
         tiny.intPrf = 80;
         tiny.fpPrf = 80;
         for (const auto &p : profilesNamed(ablationApps)) {
             g.add(p, SystemVariant::MemoryMode, base);
             g.add(p, SystemVariant::Ppa, base);
             g.add(p, SystemVariant::Ppa, nocoal);
             g.add(p, SystemVariant::MemoryMode, tiny);
             g.add(p, SystemVariant::Ppa, tiny);
             g.add(p, SystemVariant::ReplayCache, base);
         }
     },
     [](const std::vector<JobResult> &runs) {
         FigureTable f{
             "Ablation: PPA design choices (slowdown vs memory mode)",
             "Columns isolate the contribution of each mechanism the "
             "paper builds on.",
             TextTable({"app", "full PPA", "no coalescing",
                        "tiny PRF (80/80)", "sync persist (RC)"})};
         KnobMatch base = [](const ExperimentKnobs &k) {
             return !tinyPrf(k) && !noCoalescing(k);
         };
         std::vector<double> slow[4];
         for (const auto &app : ablationApps) {
             const RunStats &mm =
                 runOf(runs, app, SystemVariant::MemoryMode, base);
             double s[4] = {
                 slowdown(runOf(runs, app, SystemVariant::Ppa, base), mm),
                 slowdown(
                     runOf(runs, app, SystemVariant::Ppa, noCoalescing), mm),
                 slowdown(
                     runOf(runs, app, SystemVariant::Ppa, tinyPrf),
                     runOf(runs, app, SystemVariant::MemoryMode, tinyPrf)),
                 slowdown(runOf(runs, app, SystemVariant::ReplayCache), mm)};
             std::vector<std::string> row{app};
             for (int i = 0; i < 4; ++i) {
                 slow[i].push_back(s[i]);
                 row.push_back(TextTable::factor(s[i]));
             }
             f.table.addRow(std::move(row));
         }
         std::vector<std::string> summary{"geomean"};
         for (const auto &s : slow)
             summary.push_back(TextTable::factor(geomean(s)));
         f.table.addRow(std::move(summary));
         return f;
     }},
};

const FigureDef *
findFigure(const std::string &name)
{
    for (const FigureDef &def : figureDefs)
        if (name == def.name)
            return &def;
    return nullptr;
}

const FigureDef &
requireFigure(const std::string &name)
{
    const FigureDef *def = findFigure(name);
    if (!def)
        fatal("unknown figure sweep '", name,
              "' (try `ppa_cli sweep --list`)");
    return *def;
}

} // namespace

std::string
FigureTable::render() const
{
    std::string out = "\n=== " + title + " ===\n";
    if (!reference.empty())
        out += reference + "\n";
    return out + "\n" + table.render() + "\n" + footer;
}

const std::vector<std::string> &
sweepAppNames()
{
    static const std::vector<std::string> apps{
        "gcc",  "hmmer",  "lbm",    "mcf",      "libquantum",
        "rb",   "tpcc",   "sps",    "water-ns", "ocean",
        "lulesh", "xsbench"};
    return apps;
}

std::vector<std::string>
figureNames()
{
    std::vector<std::string> names;
    for (const FigureDef &def : figureDefs)
        names.push_back(def.name);
    return names;
}

bool
figureExists(const std::string &name)
{
    return findFigure(name) != nullptr;
}

FigureSweep
figureSweep(const std::string &name, std::uint64_t instsPerCore,
            std::uint64_t seed)
{
    const FigureDef &def = requireFigure(name);
    GridBuilder g{instsPerCore ? instsPerCore : defaultInsts, seed, {}};
    def.build(g);
    return {def.name, def.description, std::move(g.jobs)};
}

FigureTable
reduceFigure(const std::string &name,
             const std::vector<JobResult> &results)
{
    return requireFigure(name).reduce(results);
}

} // namespace ppa
