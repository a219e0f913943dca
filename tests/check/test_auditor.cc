/** @file
 * Unit and integration tests for the persistence-invariant auditor.
 *
 * Positive direction: attached to a PPA core running the persistent
 * kernels, the auditor must observe a busy event stream and report
 * zero violations, including across serialized crash/recovery cycles.
 * Negative direction: driven directly with protocol-violating event
 * sequences, it must flag each broken invariant (and panic with its
 * context when failFast is set).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/auditor.hh"
#include "check/observer.hh"
#include "isa/builder.hh"
#include "isa/program.hh"
#include "ppa/checkpoint.hh"
#include "ppa/checkpoint_io.hh"
#include "sim/system.hh"
#include "workload/kernels.hh"

using namespace ppa;
using check::Auditor;
using check::StoreOracle;

namespace
{

SystemConfig
ppaConfig()
{
    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    return sc;
}

/** A PPA system plus an UNATTACHED auditor for protocol-drive tests. */
struct Harness
{
    System system{ppaConfig()};
    std::shared_ptr<StoreOracle> oracle = std::make_shared<StoreOracle>();
    Auditor aud{system.core(0), system.memory(), oracle};
};

std::string
joinedViolations(const Auditor &aud)
{
    std::string all;
    for (const auto &v : aud.violations())
        all += v.where.describe() + ": " + v.what + "\n";
    return all;
}

/** A checkpoint image whose CSQ references phys reg 5 (value 77). */
CheckpointImage
regCarriedImage()
{
    CheckpointImage img;
    img.valid = true;
    img.anyCommitted = true;
    img.lcpc = 9;
    img.csq.push_back({5, 0x2000, 0, false});
    img.maskBits = BitVector(348);
    img.maskBits.set(5);
    img.physRegValues[5] = 77;
    return img;
}

} // namespace

TEST(StoreOracle, TracksLastWriterAndFlagsCrossCoreConflicts)
{
    StoreOracle oracle;
    oracle.record(0, 0x100, 1);
    oracle.record(0, 0x100, 2); // same core overwrite: not a conflict
    oracle.record(1, 0x200, 3);

    const auto &map = oracle.contents();
    ASSERT_EQ(map.size(), 2u);
    EXPECT_EQ(map.at(0x100).value, 2u);
    EXPECT_FALSE(map.at(0x100).conflicted);

    oracle.record(1, 0x100, 4); // another core: conflicted forever
    EXPECT_TRUE(map.at(0x100).conflicted);
    EXPECT_EQ(map.at(0x100).value, 4u);
    oracle.record(1, 0x100, 5);
    EXPECT_TRUE(map.at(0x100).conflicted);
}

TEST(Auditor, CleanKernelRunsProduceZeroViolations)
{
    struct KernelCase
    {
        const char *name;
        Program prog;
    };
    const KernelCase cases[] = {
        {"counter", kernels::counterLoop(150)},
        {"hash", kernels::hashTableUpdate(150)},
        {"tpcc", kernels::tpccNewOrder(60)},
        {"kv", kernels::kvStore(80, 50)},
    };
    for (const KernelCase &c : cases) {
        System system(ppaConfig());
        system.seedMemory(c.prog.initialMemory());
        auto oracle = std::make_shared<StoreOracle>();
        Auditor aud(system.core(0), system.memory(), oracle);
        system.core(0).attachObserver(&aud);

        ProgramExecutor source(c.prog);
        system.bindSource(0, &source);
        system.run(20'000'000);
        ASSERT_TRUE(system.allDone()) << c.name;

        EXPECT_EQ(aud.violationCount(), 0u)
            << c.name << ":\n" << joinedViolations(aud);
        EXPECT_GT(aud.eventCount(), 0u) << c.name;
        EXPECT_GT(aud.regionsAudited(), 0u) << c.name;
        EXPECT_FALSE(oracle->contents().empty()) << c.name;
    }
}

TEST(Auditor, CrashRecoveryReplaysExactlyAndStaysClean)
{
    Program prog = kernels::hashTableUpdate(600);
    ProgramExecutor golden(prog);
    golden.totalLength();

    System system(ppaConfig());
    system.seedMemory(prog.initialMemory());
    auto oracle = std::make_shared<StoreOracle>();
    Auditor aud(system.core(0), system.memory(), oracle);
    system.core(0).attachObserver(&aud);

    ProgramExecutor source(prog);
    system.bindSource(0, &source);

    for (Cycle fail_at : {Cycle{1200}, Cycle{3600}}) {
        system.runUntilCycle(fail_at);
        ASSERT_FALSE(system.allDone());
        auto images = system.powerFail();
        ASSERT_TRUE(images[0].valid);
        // Round-trip through the NVM serialization, as real recovery
        // firmware would.
        CheckpointImage restored =
            deserializeCheckpoint(serializeCheckpoint(images[0]));
        system.recover({restored});

        check::ReplayAuditResult replay = aud.verifyReplay();
        EXPECT_EQ(replay.mismatches, 0u)
            << "replay diverged after failure at cycle " << fail_at;
        EXPECT_GT(replay.addrsChecked, 0u);
    }

    system.run(20'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(aud.violationCount(), 0u) << joinedViolations(aud);
    EXPECT_TRUE(system.memory().nvmImage().sameContents(
        golden.goldenMemory()));
}

TEST(Auditor, FlagsOutOfOrderCommit)
{
    Harness h;
    h.aud.onCommit(5, false);
    h.aud.onCommit(3, false);
    ASSERT_EQ(h.aud.violationCount(), 1u);
    EXPECT_NE(h.aud.violations()[0].what.find("commit order violated"),
              std::string::npos);
}

TEST(Auditor, FlagsStoreCommitWithoutCsqRecord)
{
    Harness h;
    h.aud.onStoreCommit(0x1000, 7, csqZeroRegIndex, false, false);
    h.aud.onCommit(1, true); // retired with no CSQ push in between
    ASSERT_EQ(h.aud.violationCount(), 1u);
    EXPECT_NE(h.aud.violations()[0].what.find("without a CSQ record"),
              std::string::npos);
}

TEST(Auditor, IgnoresIoBufferStores)
{
    // Device-window stores bypass the CSQ by design (battery-backed
    // IO buffer); committing one must not demand a CSQ record.
    Harness h;
    h.aud.onStoreCommit(0x1000, 7, csqZeroRegIndex, false, true);
    h.aud.onCommit(1, true);
    EXPECT_EQ(h.aud.violationCount(), 0u);
}

TEST(Auditor, FlagsStructureClearsOutsideBoundary)
{
    Harness h;
    h.aud.onCsqClear(0);
    EXPECT_EQ(h.aud.violationCount(), 1u);
    h.aud.onMaskClearAll(0);
    EXPECT_EQ(h.aud.violationCount(), 2u);
}

TEST(Auditor, FlagsMaskSetOutsideStoreBookkeeping)
{
    Harness h;
    h.aud.onMaskSet(7);
    ASSERT_EQ(h.aud.violationCount(), 1u);
    EXPECT_NE(h.aud.violations()[0].what.find(
                  "outside a committing store's bookkeeping"),
              std::string::npos);
}

TEST(Auditor, FlagsPinnedRegisterOverwriteAndFree)
{
    // Resync the shadow from a checkpoint whose CSQ pins phys reg 5,
    // then violate store integrity both ways.
    Harness h;
    h.aud.onRecover(0, regCarriedImage());
    h.aud.onRegWrite(5);
    ASSERT_EQ(h.aud.violationCount(), 1u);
    EXPECT_NE(h.aud.violations()[0].what.find(
                  "overwritten while referenced"),
              std::string::npos);
    h.aud.onRegFree(5);
    ASSERT_EQ(h.aud.violationCount(), 2u);
    EXPECT_NE(h.aud.violations()[1].what.find("freed while pinned"),
              std::string::npos);

    // Untracked registers stay free game.
    h.aud.onRegWrite(6);
    h.aud.onRegFree(6);
    EXPECT_EQ(h.aud.violationCount(), 2u);
}

TEST(Auditor, FlagsCheckpointThatCorruptsAStoreValue)
{
    // The shadow says reg 5 carried committed value 77; a checkpoint
    // claiming 78 has lost store integrity before the power failure.
    Harness h;
    h.aud.onRecover(0, regCarriedImage());
    CheckpointImage bad = regCarriedImage();
    bad.physRegValues[5] = 78;
    h.aud.onPowerFail(0, bad);
    ASSERT_EQ(h.aud.violationCount(), 1u);
    EXPECT_NE(h.aud.violations()[0].what.find("store integrity lost"),
              std::string::npos);

    // The uncorrupted image audits clean.
    Harness h2;
    h2.aud.onRecover(0, regCarriedImage());
    h2.aud.onPowerFail(0, regCarriedImage());
    EXPECT_EQ(h2.aud.violationCount(), 0u);
}

namespace
{

/** Records the cycles at which region-boundary events fire. */
struct BoundaryRecorder : check::PipelineObserver
{
    const Core &core;
    std::vector<Cycle> starts;
    std::vector<Cycle> completes;

    explicit BoundaryRecorder(const Core &c) : core(c) {}

    void
    onRegionBoundaryStart(Cycle cycle, RegionEndCause cause) override
    {
        (void)cause;
        starts.push_back(cycle);
    }
    void
    onRegionBoundaryComplete() override
    {
        completes.push_back(core.cycle());
    }
};

/** Stores at @p stride-spaced lines, a fence, more stores, halt. */
Program
fencedBurst(unsigned before, unsigned fences, unsigned after)
{
    ProgramBuilder b;
    b.movi(1, 0x40000);
    b.movi(2, 7);
    for (unsigned i = 0; i < before; ++i)
        b.st(2, 1, i * 0x100);
    for (unsigned i = 0; i < fences; ++i)
        b.fence();
    for (unsigned i = 0; i < after; ++i)
        b.st(2, 1, (before + i) * 0x100);
    b.halt();
    return b.program();
}

} // namespace

TEST(Auditor, CrashInsideTheDrainToBoundaryWindowRecoversClean)
{
    // The riskiest crash cycle is the one where the persist barrier's
    // drain has just completed but the boundary's CSQ/MaskReg clears
    // have not executed yet. Scout the run once to learn exactly when
    // boundaries fire, then crash fresh systems at the recorded cycle
    // (boundary not yet executed) and one cycle after (structures
    // freshly cleared).
    Program prog = fencedBurst(6, 1, 6);
    ProgramExecutor golden(prog);
    golden.totalLength();

    System scout(ppaConfig());
    BoundaryRecorder recorder(scout.core(0));
    scout.seedMemory(prog.initialMemory());
    scout.core(0).attachObserver(&recorder);
    ProgramExecutor scoutSource(prog);
    scout.bindSource(0, &scoutSource);
    scout.run(1'000'000);
    ASSERT_TRUE(scout.allDone());
    ASSERT_FALSE(recorder.starts.empty());
    ASSERT_EQ(recorder.starts.size(), recorder.completes.size());

    std::vector<Cycle> crashes;
    for (std::size_t i = 0; i < recorder.starts.size() && i < 3; ++i) {
        crashes.push_back(recorder.starts[i]);
        crashes.push_back(recorder.starts[i] + 1);
    }
    for (Cycle fail_at : crashes) {
        System system(ppaConfig());
        system.seedMemory(prog.initialMemory());
        auto oracle = std::make_shared<StoreOracle>();
        Auditor aud(system.core(0), system.memory(), oracle);
        system.core(0).attachObserver(&aud);
        ProgramExecutor source(prog);
        system.bindSource(0, &source);

        system.runUntilCycle(fail_at);
        auto images = system.powerFail();
        ASSERT_TRUE(images[0].valid) << "crash at " << fail_at;
        system.recover(images);

        check::ReplayAuditResult replay = aud.verifyReplay();
        EXPECT_EQ(replay.mismatches, 0u)
            << "replay diverged, crash at " << fail_at;

        system.run(1'000'000);
        ASSERT_TRUE(system.allDone()) << "crash at " << fail_at;
        EXPECT_EQ(aud.violationCount(), 0u)
            << "crash at " << fail_at << ":\n" << joinedViolations(aud);
        EXPECT_TRUE(system.memory().nvmImage().sameContents(
            golden.goldenMemory()))
            << "NVM diverged from golden, crash at " << fail_at;
    }
}

TEST(Auditor, BackToBackZeroLengthRegionsStayClean)
{
    // Three consecutive fences create two regions with no stores at
    // all. Their boundaries must still run the full clear protocol
    // (the auditor checks clears only happen inside boundaries), and
    // crashing anywhere around the empty-region cluster must recover.
    Program prog = fencedBurst(2, 3, 2);
    ProgramExecutor golden(prog);
    golden.totalLength();

    System scout(ppaConfig());
    BoundaryRecorder recorder(scout.core(0));
    scout.seedMemory(prog.initialMemory());
    scout.core(0).attachObserver(&recorder);
    ProgramExecutor scoutSource(prog);
    scout.bindSource(0, &scoutSource);
    scout.run(1'000'000);
    ASSERT_TRUE(scout.allDone());
    // Every fence ends a region, stores or not: at least the three
    // explicit boundaries fired.
    ASSERT_GE(recorder.starts.size(), 3u);

    // A clean end-to-end pass with the auditor attached counts the
    // empty regions too.
    System clean(ppaConfig());
    clean.seedMemory(prog.initialMemory());
    auto cleanOracle = std::make_shared<StoreOracle>();
    Auditor cleanAud(clean.core(0), clean.memory(), cleanOracle);
    clean.core(0).attachObserver(&cleanAud);
    ProgramExecutor cleanSource(prog);
    clean.bindSource(0, &cleanSource);
    clean.run(1'000'000);
    ASSERT_TRUE(clean.allDone());
    EXPECT_EQ(cleanAud.violationCount(), 0u)
        << joinedViolations(cleanAud);
    EXPECT_GE(cleanAud.regionsAudited(), 3u);

    // Crash at each boundary cycle inside the empty-region cluster.
    for (Cycle fail_at : recorder.starts) {
        System system(ppaConfig());
        system.seedMemory(prog.initialMemory());
        auto oracle = std::make_shared<StoreOracle>();
        Auditor aud(system.core(0), system.memory(), oracle);
        system.core(0).attachObserver(&aud);
        ProgramExecutor source(prog);
        system.bindSource(0, &source);

        system.runUntilCycle(fail_at);
        auto images = system.powerFail();
        ASSERT_TRUE(images[0].valid) << "crash at " << fail_at;
        system.recover(images);
        EXPECT_EQ(aud.verifyReplay().mismatches, 0u)
            << "crash at " << fail_at;

        system.run(1'000'000);
        ASSERT_TRUE(system.allDone()) << "crash at " << fail_at;
        EXPECT_EQ(aud.violationCount(), 0u)
            << "crash at " << fail_at << ":\n" << joinedViolations(aud);
        EXPECT_TRUE(system.memory().nvmImage().sameContents(
            golden.goldenMemory()))
            << "crash at " << fail_at;
    }
}

TEST(AuditorDeathTest, FailFastPanicsWithAuditContext)
{
    Harness h;
    h.aud.setFailFast(true);
    EXPECT_DEATH(h.aud.onMaskSet(3), "audit core 0.*MaskReg bit 3");
}

TEST(AuditorDeathTest, WriteBufferUnderflowAlwaysPanics)
{
    // Issuing more persists than were ever enqueued is an event-protocol
    // impossibility, not a simulator-model bug: it panics regardless of
    // failFast.
    Harness h;
    h.aud.onPersistEnqueue(0x40, 1, false);
    EXPECT_DEATH(h.aud.onPersistIssue(0x40, 4),
                 "issued 4 stores with only 1 outstanding");
}
