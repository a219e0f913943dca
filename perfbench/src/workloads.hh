/**
 * @file
 * The benchmark's four workloads (README.md says why each exists).
 *
 * A workload is a fixed job list made from the seed. round() runs the
 * whole list once as a closed loop on the run's workers and returns its
 * host times, a digest of every simulated statistic it produced and
 * the verdict of its correctness oracle. main() repeats rounds
 * until the measured time is used up, so every round of one run must
 * produce the same digest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** What the benchmark was asked to run. */
struct BenchOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Host worker threads (at most the host's core count). */
    unsigned workers = 1;
    /** Tiny inputs for the self-test. */
    bool tiny = false;
    /** Scratch directory for trace shards (inside the checkout). */
    std::string workDir;
};

/** A named value printed in the human-readable table. */
struct Named
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One pass over a workload's job list. */
struct RoundResult
{
    double wallSeconds = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Host seconds of each operation, for the per-op latency. */
    std::vector<double> opSeconds;
    /** Digest of every simulated statistic of the round. */
    std::string digest;
    /** Oracle failures, one line each. */
    std::vector<std::string> problems;
    /** Front-end throughput figures of this round. */
    std::vector<Named> named;
};

/** Operations checked outside the timed rounds. */
struct CheckResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
};

class Machines;

class Workload
{
  public:
    Workload();
    virtual ~Workload();

    /**
     * The timed set-up: build the job list and the inputs, and
     * construct (and release) each distinct simulated machine the
     * rounds run on: System, bindSource, seedMemory.
     */
    virtual void prepare() = 0;

    /**
     * Untimed, after prepare(): the first time, build each machine
     * again and run it for 20k cycles, so lazy initialization, the
     * allocator and the host clock are warm before the first timed
     * round and a bad config fails before timing starts.
     */
    void warmUp();

    /** Run the job list once. */
    virtual RoundResult round() = 0;

    /**
     * Oracles that need extra, untimed simulation (a generator-driven
     * reference, or the auditors in the traced run).
     */
    virtual CheckResult check(bool traced) = 0;

  protected:
    /** What prepare() built, for warmUp(). */
    std::unique_ptr<Machines> machines;

  private:
    bool warmed = false;
};

/** The workload called @p name, or nullptr when there is none. */
std::unique_ptr<Workload> makeWorkload(const BenchOptions &opts);

/** The names makeWorkload accepts. */
std::vector<std::string> workloadNames();

/** Bytes of a trace directory's shard files (the manifest excluded). */
double shardBytesIn(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
