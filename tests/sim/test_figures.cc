/**
 * @file
 * Tests for the figure reducers (sim/figures): one row per grid app or
 * suite plus the summary row, summary geomeans that match geomean()
 * over the rows, reductions that do not depend on result order, and
 * the analytical tables' extra scalars.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "energy/cost_model.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/figures.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

/** Per-core budget small enough to run several full grids per test
 *  binary; the reducers do not care about the scale. */
constexpr std::uint64_t tinyInsts = 600;

/** The results of figure @p name's grid at tinyInsts (cached). */
const std::vector<JobResult> &
tinyRuns(const std::string &name)
{
    static std::map<std::string, std::vector<JobResult>> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache
                 .emplace(name, ExperimentDriver(4).run(
                                    figureSweep(name, tinyInsts).jobs))
                 .first;
    return it->second;
}

const RunStats &
statsOf(const std::vector<JobResult> &runs, const std::string &app,
        SystemVariant variant,
        const std::function<bool(const ExperimentKnobs &)> &at = {})
{
    for (const JobResult &r : runs)
        if (r.job.profile.name == app && r.job.variant == variant &&
            (!at || at(r.job.knobs)))
            return r.stats;
    ADD_FAILURE() << "no " << variantToken(variant) << " run of " << app;
    return runs.front().stats;
}

/** Parses a "1.23x" factor cell. */
double
factorCell(const std::string &cell)
{
    EXPECT_EQ(cell.back(), 'x') << cell;
    return std::strtod(cell.c_str(), nullptr);
}

/** Row labels (first column) of a reduced figure. */
std::vector<std::string>
rowLabels(const FigureTable &f)
{
    std::vector<std::string> labels;
    for (const auto &row : f.table.cells())
        labels.push_back(row.front());
    return labels;
}

/**
 * The last row of @p f is a geomean summary: from column @p first on,
 * each summary cell equals geomean() over the row cells above it, up
 * to the two-decimal rounding of the printed factors.
 */
void
expectGeomeanSummary(const FigureTable &f, std::size_t first)
{
    const auto &rows = f.table.cells();
    ASSERT_GE(rows.size(), 2u);
    ASSERT_EQ(rows.back().front(), "geomean");
    for (std::size_t c = first; c < rows.back().size(); ++c) {
        std::vector<double> column;
        for (std::size_t r = 0; r + 1 < rows.size(); ++r)
            column.push_back(factorCell(rows[r][c]));
        double summary = factorCell(rows.back()[c]);
        EXPECT_NEAR(geomean(column), summary, 0.006 * summary + 0.0051)
            << "column " << c;
    }
}

} // namespace

TEST(Figures, Fig08RowPerAppAndExactGeomeans)
{
    const auto &runs = tinyRuns("fig08");
    FigureTable f = reduceFigure("fig08", runs);
    const auto &rows = f.table.cells();
    const auto &apps = allProfiles();
    ASSERT_EQ(rows.size(), apps.size() + 1);

    std::vector<double> ppa;
    std::vector<double> capri;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const std::string &app = apps[i].name;
        const RunStats &base =
            statsOf(runs, app, SystemVariant::MemoryMode);
        ppa.push_back(
            slowdown(statsOf(runs, app, SystemVariant::Ppa), base));
        capri.push_back(
            slowdown(statsOf(runs, app, SystemVariant::Capri), base));
        EXPECT_EQ(rows[i][0], app);
        EXPECT_EQ(rows[i][1], suiteName(apps[i].suite));
        EXPECT_EQ(rows[i][2], TextTable::factor(ppa.back()));
        EXPECT_EQ(rows[i][3], TextTable::factor(capri.back()));
    }
    EXPECT_EQ(rows.back(),
              (std::vector<std::string>{"geomean", "-",
                                        TextTable::factor(geomean(ppa)),
                                        TextTable::factor(
                                            geomean(capri))}));
    expectGeomeanSummary(f, 2);
}

TEST(Figures, Fig16ColumnPerPrfPointWithGeomeanSummary)
{
    const auto &runs = tinyRuns("fig16");
    FigureTable f = reduceFigure("fig16", runs);
    std::vector<std::string> want = sweepAppNames();
    want.push_back("geomean");
    EXPECT_EQ(rowLabels(f), want);
    expectGeomeanSummary(f, 1);

    // The 80/80 column is the smallest-PRF point of each app.
    auto tiny = [](const ExperimentKnobs &k) { return k.intPrf == 80; };
    const auto &rows = f.table.cells();
    for (std::size_t i = 0; i < sweepAppNames().size(); ++i) {
        const std::string &app = sweepAppNames()[i];
        EXPECT_EQ(rows[i][1],
                  TextTable::factor(slowdown(
                      statsOf(runs, app, SystemVariant::Ppa, tiny),
                      statsOf(runs, app, SystemVariant::MemoryMode,
                              tiny))));
    }
}

TEST(Figures, Fig19RowPerMtAppWithGeomeanSummary)
{
    FigureTable f = reduceFigure("fig19", tinyRuns("fig19"));
    EXPECT_EQ(rowLabels(f),
              (std::vector<std::string>{"rb", "tpcc", "r20w80", "water-ns",
                                        "ocean", "genome", "geomean"}));
    expectGeomeanSummary(f, 1);
}

TEST(Figures, AblationRowPerAppWithGeomeanSummary)
{
    const auto &runs = tinyRuns("ablation");
    FigureTable f = reduceFigure("ablation", runs);
    EXPECT_EQ(rowLabels(f),
              (std::vector<std::string>{"gcc", "hmmer", "lbm", "rb",
                                        "water-ns", "tpcc", "geomean"}));
    expectGeomeanSummary(f, 1);

    // "no coalescing" is PPA without the write-combining window over
    // the full-knob memory-mode baseline.
    auto nocoal = [](const ExperimentKnobs &k) {
        return k.wbCoalesceWindow == 0;
    };
    auto base = [](const ExperimentKnobs &k) {
        return k.wbCoalesceWindow != 0 && k.intPrf != 80;
    };
    EXPECT_EQ(f.table.cells()[0][2],
              TextTable::factor(slowdown(
                  statsOf(runs, "gcc", SystemVariant::Ppa, nocoal),
                  statsOf(runs, "gcc", SystemVariant::MemoryMode, base))));
}

TEST(Figures, Table01MeasuredRowFollowsQualitativeRows)
{
    const auto &runs = tinyRuns("table01");
    FigureTable f = reduceFigure("table01", runs);
    const auto &rows = f.table.cells();
    ASSERT_EQ(rows.size(), 5u);
    const RunStats &base = statsOf(runs, "hmmer", SystemVariant::MemoryMode);
    EXPECT_EQ(rows.back(),
              (std::vector<std::string>{
                  "measured slowdown (hmmer)",
                  TextTable::factor(slowdown(
                      statsOf(runs, "hmmer", SystemVariant::ReplayCache),
                      base)),
                  TextTable::factor(slowdown(
                      statsOf(runs, "hmmer", SystemVariant::Ppa),
                      base))}));
}

TEST(Figures, Fig05RowPerSuite)
{
    FigureTable f = reduceFigure("fig05", tinyRuns("fig05"));
    EXPECT_EQ(rowLabels(f),
              (std::vector<std::string>{
                  suiteName(Suite::Cpu2006), suiteName(Suite::Cpu2017),
                  suiteName(Suite::Splash3), suiteName(Suite::Whisper),
                  suiteName(Suite::Stamp), suiteName(Suite::MiniApps)}));
}

TEST(Figures, ReductionIsDeterministicAndOrderFree)
{
    for (const char *name : {"fig08", "fig16", "fig19", "ablation"}) {
        const auto &runs = tinyRuns(name);
        std::string once = reduceFigure(name, runs).render();
        EXPECT_EQ(once, reduceFigure(name, runs).render()) << name;
        std::vector<JobResult> reversed(runs.rbegin(), runs.rend());
        EXPECT_EQ(once, reduceFigure(name, reversed).render()) << name;
    }
}

TEST(Figures, AnalyticalTablesHaveNoGridAndModelExtras)
{
    EXPECT_TRUE(figureSweep("table04").jobs.empty());
    EXPECT_TRUE(figureSweep("table05").jobs.empty());

    FigureTable t4 = reduceFigure("table04", {});
    EXPECT_EQ(t4.table.cells().size(), energy::ppaStructureCosts().size());
    double area = 0.0;
    for (const auto &[s, c] : energy::ppaStructureCosts())
        area += c.areaUm2;
    using Extra = std::vector<std::pair<std::string, double>>;
    EXPECT_EQ(t4.extra, (Extra{{"totalAreaUm2", area},
                               {"coreAreaRatio", energy::ppaAreaRatio()}}));

    FigureTable t5 = reduceFigure("table05", {});
    EXPECT_EQ(t5.table.cells().size(), 5u);
    using namespace energy;
    auto timing = checkpointTiming(ppaWorstCaseCheckpointBytes());
    EXPECT_EQ(
        t5.extra,
        (Extra{{"ppaEnergyJ",
                backupForBytes(ppaWorstCaseCheckpointBytes()).energyJ},
               {"capriEnergyJ", backupForBytes(capriFlushBytes()).energyJ},
               {"lightPcEnergyJ",
                backupForBytes(lightPcFlushBytes()).energyJ},
               {"eadrEnergyJ", eadrEnergyJ()},
               {"bbbEnergyJ", bbbEnergyJ()},
               {"checkpointReadNs", timing.readTimeNs},
               {"checkpointFlushUs", timing.flushTimeUs}}));
}

TEST(Figures, SimulatedFiguresCarryNoExtras)
{
    // Their JSON documents stay what the sweeps wrote before reducers
    // existed: jobs only.
    EXPECT_TRUE(reduceFigure("fig08", tinyRuns("fig08")).extra.empty());
    EXPECT_TRUE(reduceFigure("table01", tinyRuns("table01")).extra.empty());
}

TEST(FiguresDeathTest, MissingGridPointIsFatal)
{
    EXPECT_EXIT(reduceFigure("fig08", {}), ::testing::ExitedWithCode(1),
                "no memory-mode run of " + allProfiles().front().name);
}
