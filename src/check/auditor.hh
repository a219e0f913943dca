/**
 * @file
 * Persistence-invariant auditor (opt-in, read-only instrumentation).
 *
 * The Auditor is a check::PipelineObserver that mirrors the
 * commit/persist pipeline of one core in shadow state of its own.
 * Each event is validated against the invariants PPA's crash
 * consistency rests on:
 *
 *  - store integrity (paper Section 4): a physical register referenced
 *    by a CSQ entry of the current region is masked, is never freed,
 *    and is never overwritten until the region's stores are
 *    acknowledged persistent;
 *  - commit-order CSQ drain (Section 4.4, x86-TSO persistency): CSQ
 *    entries are appended in commit order, one per committed store,
 *    and only drop wholesale at a region boundary whose persist
 *    barrier has seen the write buffer drain;
 *  - region-boundary consistency (Sections 4.2/4.3): at a boundary the
 *    masked-register set equals the CSQ-referenced set, the write
 *    buffer holds no un-issued persist, and the NVM image matches the
 *    committed values of every address the region stored;
 *  - JIT checkpoint/replay equivalence (Sections 4.5/4.6, 7.13): a
 *    checkpoint image taken at any cycle carries exactly the current
 *    region's stores with their committed values, and replaying it
 *    reproduces the committed memory image.
 *
 * Violations are recorded (with cycle/region context) rather than
 * thrown, so a sweep can aggregate them; failFast mode upgrades them
 * to PPA_AUDIT_ASSERT panics for pinpoint debugging. Internal
 * event-protocol inconsistencies (impossible orderings that indicate
 * broken hook wiring, not a broken simulator) always panic.
 */

#ifndef PPA_CHECK_AUDITOR_HH
#define PPA_CHECK_AUDITOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/observer.hh"
#include "common/types.hh"

namespace ppa
{

class Core;
class MemHierarchy;

namespace check
{

/** Where the auditor currently is; PPA_AUDIT_ASSERT prints this. */
struct AuditContext
{
    unsigned core = 0;
    Cycle cycle = 0;
    std::uint64_t region = 0;

    std::string describe() const;
};

/** One recorded invariant violation. */
struct AuditViolation
{
    AuditContext where;
    std::string what;
};

/**
 * Shared across the auditors of one system: the last committed value
 * of every persistent address, with its writing core. Addresses
 * written by more than one core are flagged and excluded from
 * image diffs (the audit targets DRF programs; cross-core conflicts
 * have no single expected persist value).
 */
class StoreOracle
{
  public:
    struct Rec
    {
        unsigned core = 0;
        Word value = 0;
        bool conflicted = false;
    };

    void
    record(unsigned core, Addr addr, Word value)
    {
        auto [it, inserted] = map.try_emplace(addr, Rec{core, value});
        if (!inserted) {
            if (it->second.core != core)
                it->second.conflicted = true;
            it->second.core = core;
            it->second.value = value;
        }
    }

    const std::unordered_map<Addr, Rec> &contents() const { return map; }

  private:
    std::unordered_map<Addr, Rec> map;
};

/** Outcome of a replay-equivalence check after recovery. */
struct ReplayAuditResult
{
    /** Addresses whose replayed NVM value diverged (capped sample). */
    std::vector<Addr> mismatchedAddrs;
    std::uint64_t mismatches = 0;
    std::uint64_t addrsChecked = 0;

    bool ok() const { return mismatches == 0; }
};

/**
 * The per-core invariant auditor. Construct one per core, attach it
 * with Core::attachObserver, and read violations()/counters at the end
 * of the run.
 */
class Auditor : public PipelineObserver
{
  public:
    /**
     * @param core   the audited core (used for read-only cross-checks
     *               of the real CSQ/MaskReg against the shadow state)
     * @param memory the hierarchy (NVM image reads at boundaries)
     * @param oracle committed-store oracle shared among the system's
     *               auditors (one per system; may be shared by one)
     */
    Auditor(Core &core, MemHierarchy &memory,
            std::shared_ptr<StoreOracle> oracle);

    /** Fail hard (PPA_AUDIT_ASSERT) on the first violation. */
    void setFailFast(bool on) { failFast = on; }

    /**
     * Diff the post-recovery NVM image against the committed-store
     * oracle for every address owned by this core. Call immediately
     * after System::recover(); at that point every completed region
     * has persisted and the CSQ replay has re-written the current
     * region, so each owned address must read back its last committed
     * value exactly.
     */
    ReplayAuditResult verifyReplay() const;

    // ---- results ------------------------------------------------------
    const std::vector<AuditViolation> &violations() const
    {
        return recorded;
    }
    std::uint64_t violationCount() const { return violationsSeen; }
    std::uint64_t eventCount() const { return events; }
    std::uint64_t regionsAudited() const { return ctx.region; }
    /** Where the auditor is now: core, current cycle, region. */
    AuditContext context() const;
    const StoreOracle &oracle() const { return *shared; }

    // ---- PipelineObserver ---------------------------------------------
    void onCommit(std::uint64_t stream_index, bool is_store) override;
    void onStoreCommit(Addr addr, Word value, unsigned global_data_reg,
                       bool carries_value, bool to_io_buffer) override;
    void onAtomicCommit(Addr addr, Word value) override;
    void onRegFree(unsigned global_reg) override;
    void onRegWrite(unsigned global_reg) override;
    void onRegionBoundaryStart(Cycle cycle, RegionEndCause cause) override;
    void onRegionBoundaryComplete() override;
    void onPowerFail(Cycle cycle, const CheckpointImage &image) override;
    void onRecover(Cycle cycle, const CheckpointImage &image) override;
    void onCsqPush(const CsqEntry &entry) override;
    void onCsqClear(std::size_t entries) override;
    void onMaskSet(unsigned global_reg) override;
    void onMaskClearAll(std::size_t masked) override;
    void onPersistEnqueue(Addr addr, Word value, bool coalesced) override;
    void onPersistIssue(Addr line_addr, unsigned store_count) override;

  private:
    /** Shadow of one committed store of the current region. */
    struct ShadowStore
    {
        Addr addr = 0;
        Word value = 0;
        unsigned globalReg = 0; ///< csqZeroRegIndex when value-carried
        bool carriesValue = false;
    };

    void violation(const std::string &what);
    void checkBoundaryInvariants();
    void resetRegionShadow();
    void auditCheckpointImage(const CheckpointImage &image);
    /** Rebuild the region shadow from a restored checkpoint image. */
    void resyncFromImage(const CheckpointImage &image);

    Core &core;
    MemHierarchy &memory;
    std::shared_ptr<StoreOracle> shared;

    /** Core and region; the cycle is read from the core on demand. */
    AuditContext ctx;
    bool failFast = false;

    // Region shadow state (cleared at every boundary).
    std::vector<ShadowStore> regionStores;
    /** Reference counts of CSQ-referenced global registers. */
    std::unordered_map<unsigned, unsigned> liveRegs;
    /** Global registers currently masked (mirror of MaskReg). */
    std::unordered_map<unsigned, bool> maskedRegs;
    /** Latest committed value per address stored this region. */
    std::unordered_map<Addr, Word> regionValues;

    // Event-pairing state.
    bool havePendingStore = false;
    ShadowStore pendingStore;
    bool pendingCsqPushSeen = false;
    bool inBoundary = false;

    // Commit-order tracking.
    bool haveLastIndex = false;
    std::uint64_t lastStreamIndex = 0;

    // Write-buffer mirror (un-issued persist stores).
    std::uint64_t wbOutstanding = 0;

    // Counters.
    std::uint64_t events = 0;
    std::uint64_t violationsSeen = 0;
    std::vector<AuditViolation> recorded;

    static constexpr std::size_t maxRecorded = 64;
};

} // namespace check
} // namespace ppa

#endif // PPA_CHECK_AUDITOR_HH
