/**
 * @file
 * Persistency litmus tests and the crash-point conformance engine.
 *
 * A LitmusTest is a tiny multi-threaded program (isa::Program per
 * thread) plus the addresses whose post-crash values are observed.
 * The engine runs a test on a real simulated system variant, injects
 * a power failure at chosen crash points, recovers where the variant
 * supports it, and diffs each observed post-crash NVM state against
 * what the declarative persistency model (check/model.hh) allows at
 * the observed crash cut. Two findings matter:
 *
 *  - violation: an outcome the variant's own model flavor forbids at
 *    its cut — a persistency race in the implementation;
 *  - vacuity: a model-allowed outcome the engine declared *required*
 *    that no crash point ever exposed — the test isn't actually
 *    exercising the states it claims to.
 *
 * Every crash is additionally judged against the Strict flavor (the
 * PPA guarantee); strictDivergences counts outcomes Strict forbids.
 * For PPA that equals the violation count; for software-durable
 * baselines a nonzero count is the demonstration that the checker
 * discriminates between genuinely different allowed sets.
 *
 * Crash points come from exhaustive per-cycle enumeration (small
 * programs) or observer-biased randomized sampling: a quarter of the
 * draws land near region boundaries (including CSQ-full implicit
 * boundaries), a quarter near write-buffer persist enqueues/issues
 * (WPQ pressure), and half are uniform over the run.
 *
 * The corpus (litmusCorpus) covers the classic shapes: message
 * passing, store buffering, epoch boundaries, same-address
 * coherence, CSQ overflow, WPQ pressure, zero-length regions, and
 * multi-region variants. See docs/CHECKING.md for the DSL.
 */

#ifndef PPA_CHECK_LITMUS_HH
#define PPA_CHECK_LITMUS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/replaycache.hh"
#include "check/model.hh"
#include "isa/program.hh"
#include "sim/experiment.hh"

namespace ppa
{
namespace check
{

/** One litmus program: threads, observed addresses, coverage goals. */
struct LitmusTest
{
    std::string name;
    std::string description;
    /** One committed-path program per thread. Must halt, be DRF, and
     *  keep every observed address on its own cache line. */
    std::vector<Program> threads;
    /** Addresses whose post-crash NVM values form the outcome. */
    std::vector<Addr> observed;
    /**
     * Single-thread tests whose consecutive stores are separated by
     * long dependence chains retire at most one store per cycle, so
     * exhaustive crash enumeration must witness *every* store-prefix
     * state; such tests require all of them (vacuity otherwise).
     * Multi-thread tests require only the initial and final states.
     */
    bool prefixCoverage = false;
    /** Extra outcomes the exploration must witness (beyond the
     *  initial/final/prefix defaults). Must be Strict-reachable. */
    std::vector<std::vector<Word>> extraRequired;
};

/** The built-in corpus, in a stable order. */
const std::vector<LitmusTest> &litmusCorpus();

/** Find a corpus test by name; nullptr when absent. */
const LitmusTest *findLitmusTest(const std::string &name);

/** The model flavor a system variant promises to implement. */
PersistFlavor flavorForVariant(SystemVariant variant);

/**
 * Can the engine crash-observe @p variant? False (with a reason in
 * @p why when non-null) for variants without an observable
 * persistence story: capri (no checkpoint images), eadr-bbb (its
 * battery-backed guarantee is priced, not modeled, so a simulated
 * crash under-reports it) and dram-only (nothing persistent at all).
 */
bool variantSupportsLitmus(SystemVariant variant, std::string *why);

/** FNV-1a 64-bit string hash; mixes test identity into crash seeds. */
std::uint64_t fnv64(const std::string &s);

/**
 * What one full (failure-free) reference execution of a test showed:
 * whether it completed within the cycle budget, the cycle it halted
 * on, and the sorted cycles at which the cores' observers saw
 * persistency action, kept as two hot sets: region boundaries, and
 * write-buffer persist enqueues/issues.
 */
struct ReferenceSummary
{
    bool completed = false;
    Cycle endCycle = 0;
    std::vector<Cycle> boundaries;
    std::vector<Cycle> persists;
};

/** Run @p test failure-free on @p variant for at most @p maxCycles. */
ReferenceSummary runReference(const LitmusTest &test,
                              SystemVariant variant, Cycle maxCycles);

/**
 * Sample @p schedules crash cycles in [1, ref.endCycle]: a quarter
 * jittered around region boundaries, a quarter around persist events,
 * half uniform. The hot sets are sampled separately because a store
 * burst has far more persist events than boundaries, and one pooled
 * set would almost never land on a boundary. @p seed is used as-is —
 * callers mix in any per-test identity themselves.
 */
std::vector<Cycle> biasedCrashSchedule(const ReferenceSummary &ref,
                                       unsigned schedules,
                                       std::uint64_t seed);

/** What one injected crash exposed: the cut and the observed NVM. */
struct CrashObservation
{
    PersistModel::StoreCut cut;
    PersistModel::Outcome outcome;
};

/** One simulated instance of a litmus test: the system plus the
 *  per-thread sources bound to it. */
struct LitmusRun
{
    explicit LitmusRun(const SystemConfig &sc) : system(sc) {}

    System system;
    std::vector<std::unique_ptr<ProgramExecutor>> execs;
    std::vector<std::unique_ptr<ReplayCacheTransform>> transforms;
};

/** Build @p test on @p variant at cycle 0: memory seeded, sources
 *  bound. */
std::unique_ptr<LitmusRun> makeLitmusRun(const LitmusTest &test,
                                         SystemVariant variant);

/**
 * Power-fail @p system now, recover it where @p variant supports it,
 * and read back @p test's observed addresses from its NVM image.
 */
CrashObservation crashSystem(System &system, const LitmusTest &test,
                             SystemVariant variant);

/**
 * Run @p test on @p variant, power-fail at @p cycle, recover where
 * the variant supports it, and read back the observed addresses.
 */
CrashObservation crashObserve(const LitmusTest &test,
                              SystemVariant variant, Cycle cycle);

/** How crash points are chosen. */
enum class ExploreMode : std::uint8_t
{
    Exhaustive, ///< every cycle of the reference run
    Randomized, ///< auditor-biased random sampling
};

/** Engine options for one test run. */
struct LitmusOptions
{
    SystemVariant variant = SystemVariant::Ppa;
    ExploreMode mode = ExploreMode::Exhaustive;
    /** Randomized mode: number of crash points to sample. */
    unsigned schedules = 64;
    /** Randomized mode: RNG seed. */
    std::uint64_t seed = 1;
    /** Safety cap on the reference run length in cycles. */
    Cycle maxCycles = 200'000;
    /** Exhaustive mode refuses runs longer than this many cycles. */
    Cycle exhaustiveCap = 20'000;
};

/** One offending crash observation, kept for reporting. */
struct LitmusSample
{
    Cycle cycle = 0;
    /** Committed stores per thread at the crash. */
    std::vector<std::uint64_t> cut;
    std::vector<Word> outcome;
    std::string detail;
};

/** Conformance verdict of one (test, variant, mode) run. */
struct LitmusResult
{
    std::string test;
    SystemVariant variant = SystemVariant::Ppa;
    PersistFlavor flavor = PersistFlavor::Strict;
    ExploreMode mode = ExploreMode::Exhaustive;

    std::uint64_t crashPoints = 0;
    /** Outcomes the variant's own flavor forbids at their cut. */
    std::uint64_t violations = 0;
    /** Outcomes the Strict (PPA) flavor forbids at their cut. */
    std::uint64_t strictDivergences = 0;
    /** Required outcomes never observed. */
    std::uint64_t vacuous = 0;
    std::uint64_t requiredTotal = 0;
    std::uint64_t requiredSeen = 0;
    /** Distinct outcomes observed across all crash points. */
    std::uint64_t distinctOutcomes = 0;

    /** Whether vacuity counts against pass() for this run. */
    bool coverageRequired = false;
    /** The test/corpus itself is unusable (racy, non-halting, ...). */
    bool corpusError = false;

    std::vector<LitmusSample> samples; ///< capped offending crashes
    std::vector<std::string> notes;

    bool
    pass() const
    {
        return !corpusError && violations == 0 &&
               (!coverageRequired || vacuous == 0);
    }
};

/** Run one litmus test under @p opts. */
LitmusResult runLitmusTest(const LitmusTest &test,
                           const LitmusOptions &opts);

/** Serialize results of one engine invocation as a JSON document. */
std::string litmusResultsJson(const std::vector<LitmusResult> &results,
                              const LitmusOptions &opts);

} // namespace check
} // namespace ppa

#endif // PPA_CHECK_LITMUS_HH
