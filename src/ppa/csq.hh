/**
 * @file
 * CSQ — the Committed Store Queue (paper Sections 4 and 4.4).
 *
 * A circular FIFO of (source physical register index, destination
 * physical address) pairs, one per committed store of the current
 * region, in program order. It is cleared at every region boundary
 * once all the region's stores are acknowledged persistent; if it
 * fills up mid-region, the pipeline treats that as an implicit region
 * boundary (Section 4.2, "Full CSQ as an Implicit Region Boundary").
 *
 * On power failure the CSQ is JIT-checkpointed; recovery scans it
 * front to rear and re-executes the stores (idempotent replay).
 */

#ifndef PPA_PPA_CSQ_HH
#define PPA_PPA_CSQ_HH

#include <cstdint>
#include <deque>

#include "check/observer.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace ppa
{

/**
 * Sentinel physical register index: the store's data operand was an
 * architectural register that had never been defined, so its value is
 * architecturally zero and nothing in the PRF needs preserving.
 */
constexpr unsigned csqZeroRegIndex = ~0u;

/** One committed-store record. */
struct CsqEntry
{
    /** Global physical register index of the store's data operand
     *  (csqZeroRegIndex when the value is architecturally zero, or
     *  when the entry carries the value inline). */
    unsigned physRegIndex = 0;
    /** Destination physical address of the store. */
    Addr addr = 0;
    /**
     * Inline data value. Used by the paper's Section 6 extension for
     * in-order cores and ROB-style renaming, where the CSQ stores
     * data *values* rather than PRF indexes; ignored in the default
     * (unified-PRF) design.
     */
    Word value = 0;
    /** True when @ref value (not the PRF) carries the data. */
    bool carriesValue = false;
};

/**
 * The committed store queue. Modeled as a bounded FIFO; the single
 * read/write port of the hardware design is reflected in the pipeline
 * pushing at most commit-width entries per cycle, which the structure
 * itself does not need to enforce.
 */
class Csq
{
  public:
    Csq() = default;

    explicit Csq(unsigned num_entries) : capacity(num_entries) {}

    bool full() const { return entries.size() >= capacity; }
    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }
    unsigned entryCapacity() const { return capacity; }

    /** Record a committing store; the queue must not be full. */
    void
    push(unsigned phys_reg_index, Addr addr)
    {
        PPA_ASSERT(!full(), "CSQ overflow must be handled as a region "
                            "boundary before pushing");
        entries.push_back({phys_reg_index, addr, 0, false});
        if (obs)
            obs->onCsqPush(entries.back());
    }

    /** Record a committing store with an inline data value (the
     *  Section 6 in-order / ROB-renaming extension). */
    void
    pushValue(Addr addr, Word value)
    {
        PPA_ASSERT(!full(), "CSQ overflow must be handled as a region "
                            "boundary before pushing");
        entries.push_back({csqZeroRegIndex, addr, value, true});
        if (obs)
            obs->onCsqPush(entries.back());
    }

    /** Region boundary: drop all entries. */
    void
    clear()
    {
        if (obs)
            obs->onCsqClear(entries.size());
        entries.clear();
    }

    /** Front-to-rear iteration for checkpoint and replay. */
    const std::deque<CsqEntry> &contents() const { return entries; }

    void
    restore(const std::deque<CsqEntry> &saved)
    {
        PPA_ASSERT(saved.size() <= capacity, "restoring oversized CSQ");
        entries = saved;
    }

    /** Set by Core::attachObserver; restore() fires no events
     *  (recovery resyncs). */
    void setObserver(check::PipelineObserver *observer) { obs = observer; }

  private:
    unsigned capacity = 40;
    std::deque<CsqEntry> entries;
    check::PipelineObserver *obs = nullptr;
};

} // namespace ppa

#endif // PPA_PPA_CSQ_HH
