/**
 * @file
 * The paper's figures and tables as data.
 *
 * Each evaluation figure is a grid of (workload, variant, knobs)
 * jobs plus a reducer that turns the finished runs into the figure's
 * table (slowdowns, geomeans, per-suite summaries). Both live here,
 * in one definition per figure, so `ppa_cli sweep <figure>` runs the
 * grid through the ExperimentDriver and prints the figure from the
 * same place. The analytical tables (Tables 4 and 5) have an empty
 * grid and a reducer over the energy cost model.
 */

#ifndef PPA_SIM_FIGURES_HH
#define PPA_SIM_FIGURES_HH

#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "sim/driver.hh"

namespace ppa
{

/** A figure's full sweep grid plus its provenance. */
struct FigureSweep
{
    std::string name;        ///< e.g. "fig08"
    std::string description; ///< what the figure shows
    std::vector<SweepJob> jobs;
};

/** A figure reduced from its sweep results, ready to print. */
struct FigureTable
{
    std::string title;     ///< printed as "=== title ==="
    std::string reference; ///< the "Paper: ..." line; may be empty
    TextTable table;       ///< one row per app or suite, summary last
    std::string footer{};  ///< lines printed after the table
    /** Figure-specific scalars for metrics::sweepToJson's "extra". */
    std::vector<std::pair<std::string, double>> extra{};

    /** The printed figure block: title, reference, table, footer. */
    std::string render() const;
};

/** Names of all registered figures, in paper order. */
std::vector<std::string> figureNames();

/** True when @p name is a registered figure. */
bool figureExists(const std::string &name);

/**
 * Build the sweep grid for @p name (fatal on unknown names; check
 * with figureExists() first for friendly handling).
 *
 * @param instsPerCore committed-instruction budget per core; 0 keeps
 *        each figure's default.
 * @param seed root workload seed for every job.
 */
FigureSweep figureSweep(const std::string &name,
                        std::uint64_t instsPerCore = 0,
                        std::uint64_t seed = 42);

/**
 * Reduce @p results — the runs of figureSweep(@p name, ...) in any
 * order, with any instruction budget and seed — to the figure's
 * table. Fatal on unknown names or when a grid point is missing.
 */
FigureTable reduceFigure(const std::string &name,
                         const std::vector<JobResult> &results);

/** The representative cross-suite app subset used by sweep figures
 *  (full-41 sweeps would multiply runtimes by the sweep depth). */
const std::vector<std::string> &sweepAppNames();

} // namespace ppa

#endif // PPA_SIM_FIGURES_HH
