/**
 * @file
 * In-run telemetry: sampled counter time-series, region/power-failure
 * timelines, and per-cycle stall attribution (docs/TELEMETRY.md).
 *
 * The collector (obs::Telemetry) attaches one check::PipelineObserver
 * per core through Core::attachObserver, as the audit layer does. Every
 * telemetrySampleCycles cycles it records the occupancy of the ROB,
 * fetch and ready queues, CSQ, write buffer, free PRF, plus
 * system-wide WPQ occupancy and interval NVM read/write bytes, into
 * bounded series that downsample on the fly (adjacent-bucket merging)
 * so memory stays O(seriesCap) on arbitrarily long runs. Every cycle
 * it attributes the core's progress to exactly one CycleClass bucket.
 *
 * Determinism: everything recorded is a pure function of simulated
 * cycles and machine state, so telemetry joins the repo's bitwise
 * contracts (serial == parallel sweeps, time-parallel worker-count
 * invariance). The harvested TelemetryResult is a value type carried
 * inside RunStats and serialized additively as `stats.telemetry`.
 */

#ifndef PPA_OBS_TELEMETRY_HH
#define PPA_OBS_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "check/observer.hh"

namespace ppa
{

class Core;
class MemHierarchy;

namespace obs
{

/**
 * Exactly-one-per-cycle attribution buckets. The first six mirror the
 * structural check::StallReason taxonomy; Active/Other/Idle make the
 * partition total: per core, the bucket counts sum to the number of
 * covered cycles (the acceptance check `ppa_cli profile` prints).
 */
enum class CycleClass : std::uint8_t
{
    Active,       ///< >= 1 instruction committed this cycle
    FetchStarved, ///< nothing committed, pipeline empty, stream dry/slow
    RobFull,      ///< StallReason::RobFull
    CsqFull,      ///< StallReason::CsqFull
    WpqFull,      ///< StallReason::WpqFull
    NvmBandwidth, ///< StallReason::NvmBandwidth
    Other,        ///< no commit, no structural cause (exec/mem latency)
    Idle,         ///< core finished its stream
};

inline constexpr unsigned kCycleClassCount = 8;

/** Stable serialization key for a CycleClass ("active", "robFull", ...). */
const char *cycleClassKey(CycleClass c);

/** Human-readable label ("ROB-full", "NVM-bandwidth", ...). */
const char *cycleClassLabel(CycleClass c);

/** Configuration for one collector (wired from ExperimentKnobs). */
struct TelemetryConfig
{
    /** Sampling period for the counter series, in cycles. */
    std::uint64_t sampleCycles = 256;
    /** Bucket capacity per series; when a series fills, adjacent
     *  buckets merge (stride doubles) so memory stays bounded. */
    std::size_t seriesCap = 1024;
};

/** Hard cap on recorded region-boundary events per run; completions
 *  past the cap are counted, not stored. */
inline constexpr std::size_t kRegionEventCap = 4096;

/**
 * One sampled counter series as bounded buckets. Each bucket covers a
 * contiguous cycle window and stores the count of raw samples that
 * landed in it and their sum — so bucket means survive downsampling
 * and interval-counter series (NVM bytes) keep their exact total
 * (the downsampling invariant tests/obs/test_telemetry.cc pins).
 */
struct TelemetrySeries
{
    std::string name; ///< "rob", "fetchQ", ..., "nvmWriteBytes"
    int core = -1;    ///< owning core, or -1 for system-wide series
    /** Bucket start cycles, rebased to the run's covered window
     *  (time-parallel stitching offsets them per segment). */
    std::vector<std::uint64_t> cycles;
    /** Raw samples aggregated into each bucket. */
    std::vector<std::uint64_t> counts;
    /** Sum of the sampled values in each bucket. */
    std::vector<std::uint64_t> sums;

    /** Total raw samples across all buckets. */
    std::uint64_t samples() const;
    /** Sum over all buckets (for interval counters: the aggregate). */
    std::uint64_t total() const;
    /** Mean of the raw samples (0 when empty). */
    double mean() const;
    /** Percentile over bucket means, sample-count weighted;
     *  @p frac in [0,1]. */
    double percentile(double frac) const;
    /** Largest bucket mean. */
    double maxBucketMean() const;
};

/** One completed region with its drain span (cycles are rebased). */
struct TelemetryRegionEvent
{
    unsigned core = 0;
    std::uint64_t start = 0;      ///< first cycle of the region
    std::uint64_t drainStart = 0; ///< first boundary-stalled cycle
    std::uint64_t end = 0;        ///< boundary completion cycle
    RegionEndCause cause = RegionEndCause::PrfExhausted;
};

/** One power-failure/recovery span (cycles are rebased). */
struct TelemetryPowerEvent
{
    unsigned core = 0;
    std::uint64_t fail = 0;
    std::uint64_t recover = 0;
    bool recovered = false;
};

/** Hard cap on recorded per-request spans per run; requests past the
 *  cap are counted, not stored. */
inline constexpr std::size_t kRequestSpanCap = 4096;

/**
 * One served request on the open-loop timeline (docs/SERVING.md):
 * arrival from the arrival process, start/finish from the Lindley
 * remapping of simulated ack-commit service times. Only the serving
 * harness fills these; classic runs leave the list empty.
 */
struct TelemetryRequestSpan
{
    unsigned core = 0;
    std::uint64_t seq = 0; ///< request sequence number (from 1)
    std::uint64_t arrival = 0;
    std::uint64_t start = 0;
    std::uint64_t finish = 0;
};

/**
 * Harvested telemetry for one run: a value type inside RunStats,
 * serialized as the additive `stats.telemetry` block.
 */
struct TelemetryResult
{
    bool enabled = false;
    std::uint64_t sampleCycles = 0;
    std::uint64_t seriesCap = 0;
    /** Cycles classified per core (== stall-bucket row sums). */
    std::uint64_t coveredCycles = 0;
    /** Per-core cycle counts, indexed [core][CycleClass]. */
    std::vector<std::array<std::uint64_t, kCycleClassCount>> stallCycles;
    std::vector<TelemetrySeries> series;
    std::vector<TelemetryRegionEvent> regionEvents;
    std::uint64_t droppedRegionEvents = 0;
    std::vector<TelemetryPowerEvent> powerEvents;
    /** Request spans (serving harness only; empty elsewhere). */
    std::vector<TelemetryRequestSpan> requestSpans;
    std::uint64_t droppedRequestSpans = 0;

    /** Cycles in @p c summed across cores. */
    std::uint64_t classCycles(CycleClass c) const;
    /** Find a series by (name, core); nullptr when absent. */
    const TelemetrySeries *findSeries(const std::string &name,
                                      int core) const;
};

/**
 * Append @p seg to @p dst with every cycle shifted by @p cycle_offset
 * — the time-parallel stitcher's rebasing concatenation. Series are
 * matched by (name, core) and re-downsampled to dst.seriesCap after
 * appending; stall buckets and event lists accumulate.
 */
void appendTelemetry(TelemetryResult &dst, const TelemetryResult &seg,
                     std::uint64_t cycle_offset);

/**
 * The per-run collector. Construct, attach() each core in id order
 * (cores attach at their current cycle — the classic runner attaches
 * at cycle 0, the segment runner after its warmup prefix), run the
 * simulation, then harvest().
 */
class Telemetry
{
  public:
    Telemetry(const TelemetryConfig &config, unsigned num_cores);
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /**
     * Create and attach the hook for @p core. Core 0 additionally
     * samples the system-wide series through @p mem. Sampling is
     * strictly read-only: it must not (and does not) perturb any
     * simulated state.
     */
    void attach(Core &core, MemHierarchy &mem);

    /**
     * Materialize the result: flushes the residual interval-counter
     * deltas (so interval sums equal the end-of-run aggregates) and
     * rebases all cycles to each core's attach cycle.
     */
    TelemetryResult harvest();

  private:
    class CoreTelemetry;

    TelemetryConfig cfg;
    std::vector<std::unique_ptr<CoreTelemetry>> hooks;
};

} // namespace obs
} // namespace ppa

#endif // PPA_OBS_TELEMETRY_HH
