/**
 * @file
 * The one observer interface of the simulator's event path.
 *
 * The pipeline structures whose interplay carries PPA's crash
 * consistency (Core commit/retire, the CSQ, the MaskReg, and the L1D
 * write buffer) report their events to one PipelineObserver.
 * Core::attachObserver wires a core and all of those structures at
 * once; a second attached observer is fanned out to in attach order.
 * Every callback is a no-op by default, the pointer is null by
 * default, and nothing in the simulator's behavior may depend on an
 * observer being attached: the invariant auditor (check::Auditor),
 * the telemetry collector (obs::Telemetry) and the front ends'
 * trackers are strictly read-only instrumentation.
 *
 * The interface lives here, below every model library, so that
 * core/ppa/mem headers can include it without depending on any
 * observer implementation.
 */

#ifndef PPA_CHECK_OBSERVER_HH
#define PPA_CHECK_OBSERVER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "ppa/region_stats.hh"

namespace ppa
{

struct CsqEntry;
struct CheckpointImage;

namespace check
{

/**
 * Structural reasons a core cycle can stall on. At most one fires per
 * cycle per core (Core asserts this): commit-side persist backpressure
 * is attributed first, and the rename-side ROB-full symptom is only
 * reported when no commit-side cause claimed the cycle.
 */
enum class StallReason : std::uint8_t
{
    /** No structural stall this cycle. */
    None,
    /** Rename blocked: ROB at capacity (and commit is not draining a
     *  region — otherwise the drain cause owns the cycle). */
    RobFull,
    /** Commit blocked draining an implicit region boundary forced by
     *  a full committed store queue (Section 4.2). */
    CsqFull,
    /** Commit blocked on the persist path with the write buffer or an
     *  NVM write pending queue at capacity (structural backpressure). */
    WpqFull,
    /** Commit blocked waiting for persist acknowledgments while the
     *  WB/WPQ have room: the drain is paced by NVM write bandwidth. */
    NvmBandwidth,
};

/**
 * Observes one core and its persistence structures. Callbacks fired in
 * the middle of a tick can read the current cycle from Core::cycle().
 */
class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;

    // ---- Core ------------------------------------------------------

    /**
     * End of Core::tick for cycle @p cycle. @p committed is the number
     * of instructions retired this cycle and @p stall the cycle's
     * structural-stall reason (StallReason::None if there was none).
     */
    virtual void
    onCycleEnd(Cycle /*cycle*/, unsigned /*committed*/,
               StallReason /*stall*/)
    {
    }

    /** An instruction retired (after all bookkeeping succeeded). */
    virtual void
    onCommit(std::uint64_t /*stream_index*/, bool /*is_store*/) {}

    /**
     * A store retired. Fired *before* the store's CSQ/MaskReg
     * bookkeeping so the auditor can pair the structure events that
     * follow with this store.
     *
     * @param global_data_reg global PRF index of the data operand, or
     *        csqZeroRegIndex when the value is architecturally zero or
     *        carried inline
     * @param carries_value  Section 6 variant: the CSQ records the
     *        value, not a register index
     * @param to_io_buffer   the store targets the battery-backed I/O
     *        window and bypasses CSQ/NVM entirely
     */
    virtual void
    onStoreCommit(Addr /*addr*/, Word /*value*/,
                  unsigned /*global_data_reg*/, bool /*carries_value*/,
                  bool /*to_io_buffer*/)
    {
    }

    /** An atomic RMW performed its synchronous persistent write. */
    virtual void onAtomicCommit(Addr /*addr*/, Word /*value*/) {}

    /** A physical register returned to the free list. */
    virtual void onRegFree(unsigned /*global_reg*/) {}

    /** A physical register was written back (newly produced value). */
    virtual void onRegWrite(unsigned /*global_reg*/) {}

    /**
     * A region boundary at @p cycle is about to complete: the persist
     * barrier's conditions are met, but deferred frees / MaskReg / CSQ
     * clears have not happened yet. The auditor runs its end-of-region
     * checks here, against the still-intact structures.
     */
    virtual void
    onRegionBoundaryStart(Cycle /*cycle*/, RegionEndCause /*cause*/) {}

    /** The region boundary finished (structures cleared). */
    virtual void onRegionBoundaryComplete() {}

    /** A power failure at @p cycle captured @p image (before volatile
     *  state drops). */
    virtual void
    onPowerFail(Cycle /*cycle*/, const CheckpointImage & /*image*/) {}

    /** Recovery from @p image finished at @p cycle (RAT/CRT/CSQ/PRF
     *  restored). */
    virtual void
    onRecover(Cycle /*cycle*/, const CheckpointImage & /*image*/) {}

    // ---- Csq -------------------------------------------------------

    /** @p entry was appended (committing store, in commit order). */
    virtual void onCsqPush(const CsqEntry & /*entry*/) {}

    /** The CSQ dropped all @p entries entries (region boundary). */
    virtual void onCsqClear(std::size_t /*entries*/) {}

    // ---- MaskReg ---------------------------------------------------

    /** Bit @p global_reg was set (committed-store data operand). */
    virtual void onMaskSet(unsigned /*global_reg*/) {}

    /** All @p masked set bits cleared (region boundary). */
    virtual void onMaskClearAll(std::size_t /*masked*/) {}

    // ---- WriteBuffer (the core's persist path) ---------------------

    /**
     * A committed store's persist operation entered the buffer.
     * @param coalesced merged into an existing same-line entry
     */
    virtual void
    onPersistEnqueue(Addr /*addr*/, Word /*value*/, bool /*coalesced*/) {}

    /**
     * An entry carrying @p store_count stores entered the NVM WPQ and
     * is now inside the persistence domain (its words were applied to
     * the NVM image).
     */
    virtual void
    onPersistIssue(Addr /*line_addr*/, unsigned /*store_count*/) {}
};

/**
 * Forwards every event to each attached observer in attach order. A
 * core points at its own fan-out only while two or more observers are
 * attached; with one, the core calls it directly. Held by value in the
 * core, so a copied core (System::fork) copies it too and then clears
 * it.
 */
class ObserverFanOut final : public PipelineObserver
{
  public:
    using Obs = PipelineObserver;

    std::vector<Obs *> targets;

    void
    onCycleEnd(Cycle c, unsigned n, StallReason r) override
    {
        each(&Obs::onCycleEnd, c, n, r);
    }
    void
    onCommit(std::uint64_t i, bool st) override
    {
        each(&Obs::onCommit, i, st);
    }
    void
    onStoreCommit(Addr a, Word v, unsigned g, bool cv, bool io) override
    {
        each(&Obs::onStoreCommit, a, v, g, cv, io);
    }
    void
    onAtomicCommit(Addr a, Word v) override
    {
        each(&Obs::onAtomicCommit, a, v);
    }
    void onRegFree(unsigned g) override { each(&Obs::onRegFree, g); }
    void onRegWrite(unsigned g) override { each(&Obs::onRegWrite, g); }
    void
    onRegionBoundaryStart(Cycle c, RegionEndCause e) override
    {
        each(&Obs::onRegionBoundaryStart, c, e);
    }
    void
    onRegionBoundaryComplete() override
    {
        each(&Obs::onRegionBoundaryComplete);
    }
    void
    onPowerFail(Cycle c, const CheckpointImage &i) override
    {
        each(&Obs::onPowerFail, c, i);
    }
    void
    onRecover(Cycle c, const CheckpointImage &i) override
    {
        each(&Obs::onRecover, c, i);
    }
    void onCsqPush(const CsqEntry &e) override { each(&Obs::onCsqPush, e); }
    void onCsqClear(std::size_t n) override { each(&Obs::onCsqClear, n); }
    void onMaskSet(unsigned g) override { each(&Obs::onMaskSet, g); }
    void
    onMaskClearAll(std::size_t n) override
    {
        each(&Obs::onMaskClearAll, n);
    }
    void
    onPersistEnqueue(Addr a, Word v, bool co) override
    {
        each(&Obs::onPersistEnqueue, a, v, co);
    }
    void
    onPersistIssue(Addr a, unsigned n) override
    {
        each(&Obs::onPersistIssue, a, n);
    }

  private:
    template <typename... P, typename... A>
    void
    each(void (Obs::*fn)(P...), const A &...args)
    {
        for (Obs *o : targets)
            (o->*fn)(args...);
    }
};

} // namespace check
} // namespace ppa

#endif // PPA_CHECK_OBSERVER_HH
