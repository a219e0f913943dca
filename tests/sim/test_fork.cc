/** @file
 * Tests for System::fork.
 *
 * The oracle: across the litmus corpus on every crash-observable
 * variant, forking one running system at each cycle and crashing the
 * fork must expose exactly what check::crashObserve exposes when it
 * re-simulates that cycle from scratch; and the parent, finished after
 * all those forks, must end bit-for-bit where a never-forked run ends.
 * A fork resumed with its own sources must likewise finish exactly
 * where its parent finishes, after the parent is gone.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/litmus.hh"
#include "sim/experiment.hh"
#include "workload/kernels.hh"

using namespace ppa;

namespace
{

/** Every counter a run's outcome is judged by, in one comparable
 *  vector. */
std::vector<std::uint64_t>
fingerprint(System &system)
{
    std::vector<std::uint64_t> f = {system.cycle()};
    MemHierarchy &mem = system.memory();
    for (unsigned c = 0; c < system.numCores(); ++c) {
        const Core &core = system.core(c);
        f.insert(f.end(),
                 {core.committedInsts(), core.committedStores(),
                  core.lastCommittedIndex(), core.anyCommitted(),
                  core.regionStats().regionCount(),
                  core.regionStats().stallCycles(),
                  core.regionStats().endedByPrf(),
                  core.regionStats().endedByCsq(),
                  core.regionStats().endedBySync(),
                  core.renameStallNoRegCycles(), core.sqFullStalls(),
                  core.robFullStalls(), core.freeIntRegs(),
                  core.freeFpRegs(), mem.l1d(c).hits(),
                  mem.l1d(c).misses(),
                  mem.writeBuffer(c).persistOps(),
                  mem.writeBuffer(c).coalescedStores(),
                  mem.writeBuffer(c).fullStalls()});
    }
    f.insert(f.end(),
             {mem.l2().hits(), mem.l2().misses(), mem.nvm().writeCount(),
              mem.nvm().readCount(), mem.nvm().bytesWritten(),
              mem.nvm().wpqStallCycles()});
    return f;
}

void
expectSameMemory(System &got, System &want, const std::string &what)
{
    EXPECT_TRUE(got.memory().nvmImage()
                    .diffAddrs(want.memory().nvmImage())
                    .empty())
        << what << ": NVM images differ";
    EXPECT_TRUE(got.memory().committed()
                    .diffAddrs(want.memory().committed())
                    .empty())
        << what << ": committed images differ";
}

constexpr Cycle kCap = check::LitmusOptions{}.maxCycles;

/** One oracle case: a crash-observable variant and a corpus index. */
struct OracleCase
{
    SystemVariant variant;
    std::size_t test;
};

std::string
oracleName(const OracleCase &c)
{
    std::string name = std::string(variantToken(c.variant)) + "_" +
                       check::litmusCorpus()[c.test].name;
    for (char &ch : name) {
        if (ch == '-')
            ch = '_';
    }
    return name;
}

// gtest would otherwise print the raw bytes of the case (padding
// among them) into every test name, so the names would change from
// one build to the next.
std::ostream &
operator<<(std::ostream &os, const OracleCase &c)
{
    return os << oracleName(c);
}

std::vector<OracleCase>
oracleCases()
{
    std::vector<OracleCase> cases;
    for (SystemVariant v : {SystemVariant::Ppa, SystemVariant::MemoryMode,
                            SystemVariant::ReplayCache}) {
        for (std::size_t i = 0; i < check::litmusCorpus().size(); ++i)
            cases.push_back({v, i});
    }
    return cases;
}

class ForkOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(ForkOracle, EveryCycleMatchesFromScratchCrash)
{
    const SystemVariant variant = GetParam().variant;
    const check::LitmusTest &test =
        check::litmusCorpus()[GetParam().test];
    check::ReferenceSummary ref = check::runReference(test, variant, kCap);
    ASSERT_TRUE(ref.completed);

    auto parent = check::makeLitmusRun(test, variant);
    for (Cycle c = 1; c <= ref.endCycle; ++c) {
        parent->system.runUntilCycle(c);
        System branch = parent->system.fork();
        check::CrashObservation got =
            check::crashSystem(branch, test, variant);
        check::CrashObservation want =
            check::crashObserve(test, variant, c);
        ASSERT_EQ(got.cut, want.cut) << "crash at cycle " << c;
        ASSERT_EQ(got.outcome, want.outcome) << "crash at cycle " << c;
    }

    // All those forks left the parent exactly where a run that was
    // never forked ends.
    parent->system.run(kCap);
    auto plain = check::makeLitmusRun(test, variant);
    plain->system.run(kCap);
    EXPECT_EQ(fingerprint(parent->system), fingerprint(plain->system));
    expectSameMemory(parent->system, plain->system, test.name);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ForkOracle, ::testing::ValuesIn(oracleCases()),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return oracleName(info.param);
    });

/** Hands out a program's instructions and remembers the index the
 *  next one will carry, so a fork can be resumed where this stands. */
class CountingSource : public DynInstSource
{
  public:
    explicit CountingSource(const Program &program) : exec(program) {}

    bool
    next(DynInst &out) override
    {
        if (!exec.next(out))
            return false;
        position = out.index + 1;
        return true;
    }

    void
    seekTo(std::uint64_t index) override
    {
        exec.seekTo(index);
        position = index;
    }

    std::uint64_t position = 0;

  private:
    ProgramExecutor exec;
};

TEST(SystemFork, ResumedForkFinishesWhereItsParentWould)
{
    const std::vector<Program> programs = {
        kernels::counterLoop(3000, 0x10000),
        kernels::counterLoop(2000, 0x20000)};
    const unsigned n = static_cast<unsigned>(programs.size());
    SystemConfig sc = makeSystemConfig(SystemVariant::Ppa,
                                       ExperimentKnobs{}, n);

    // The parent runs part way, is forked, and is destroyed before the
    // fork runs: nothing the fork touches may belong to the parent.
    auto parent = std::make_unique<System>(sc);
    std::vector<std::unique_ptr<CountingSource>> parentSrcs;
    for (unsigned t = 0; t < n; ++t) {
        parent->seedMemory(programs[t].initialMemory());
        parentSrcs.push_back(std::make_unique<CountingSource>(programs[t]));
        parent->bindSource(t, parentSrcs.back().get());
    }
    parent->runUntilCycle(4000);
    ASSERT_FALSE(parent->allDone());
    System fork = parent->fork();
    std::vector<std::uint64_t> resumeAt;
    for (const auto &src : parentSrcs)
        resumeAt.push_back(src->position);
    parent.reset();
    parentSrcs.clear();

    std::vector<std::unique_ptr<CountingSource>> forkSrcs;
    for (unsigned t = 0; t < n; ++t) {
        forkSrcs.push_back(std::make_unique<CountingSource>(programs[t]));
        forkSrcs.back()->seekTo(resumeAt[t]);
        fork.bindSource(t, forkSrcs.back().get());
    }
    fork.run(10'000'000);
    ASSERT_TRUE(fork.allDone());

    System plain(sc);
    std::vector<std::unique_ptr<CountingSource>> plainSrcs;
    for (unsigned t = 0; t < n; ++t) {
        plain.seedMemory(programs[t].initialMemory());
        plainSrcs.push_back(std::make_unique<CountingSource>(programs[t]));
        plain.bindSource(t, plainSrcs.back().get());
    }
    plain.run(10'000'000);

    EXPECT_EQ(fingerprint(fork), fingerprint(plain));
    expectSameMemory(fork, plain, "resumed fork");
}

} // namespace
