/**
 * @file
 * L1D write buffer with persist coalescing (paper Section 4.3).
 *
 * When a committed store merges into the L1 data cache, PPA generates
 * an asynchronous store-persistence operation in the write buffer (WB)
 * that sits between L1D and the levels below. While an operation waits
 * for the NVM write pending queue, younger stores to the same line
 * coalesce into it. The L1D controller's counter register tracks the
 * number of stores whose persistence is still outstanding; the region
 * boundary's persist barrier retires only when the counter is zero.
 *
 * The WB carries word-exact data: this is what makes the recovery
 * verification value-exact end to end.
 *
 * Persistence-domain semantics: as on real ADR hardware, a write is
 * considered persistent once the WPQ *accepts* it — the WPQ drains on
 * residual power. The L1D counter therefore tracks stores that have
 * not yet entered the WPQ; media bandwidth still back-pressures the
 * system through WPQ occupancy.
 */

#ifndef PPA_MEM_WRITE_BUFFER_HH
#define PPA_MEM_WRITE_BUFFER_HH

#include <array>
#include <cstdint>
#include <deque>

#include "check/observer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_image.hh"
#include "mem/nvm.hh"

namespace ppa
{

/**
 * Per-core write buffer feeding asynchronous persists into the NVM.
 */
class WriteBuffer
{
  public:
    /**
     * @param entries WB capacity in line entries
     * @param line_bytes cache line size (persist granularity)
     * @param coalesce_window cycles an entry stays open for write
     *        combining before it issues to the WPQ (it issues earlier
     *        when the buffer is more than half full)
     */
    WriteBuffer(unsigned entries, unsigned line_bytes,
                unsigned coalesce_window = 1024);

    /**
     * Add one committed store's persist operation.
     *
     * @return false when the buffer is full and the store's line is
     *         not coalescable; the caller must retry next cycle.
     */
    bool addStore(Addr addr, Word value, Cycle now);

    /**
     * Advance time: issue waiting entries into the NVM WPQ and apply
     * drained writes to the persistent image.
     */
    void tick(Cycle now, Nvm &nvm, MemImage &nvm_image);

    /**
     * Number of stores whose persistence has not yet been acknowledged
     * (the paper's L1D-controller counter register).
     */
    unsigned outstandingStores(Cycle now);

    /** True when no entry is buffered or in flight. */
    bool
    empty(Cycle now)
    {
        return outstandingStores(now) == 0;
    }

    /**
     * Force-drain for end-of-simulation: returns the cycle by which
     * everything is persisted (repeatedly ticking internally).
     */
    Cycle drainAll(Cycle now, Nvm &nvm, MemImage &nvm_image);

    /**
     * Persist-barrier drain mode: while set, the write-combining
     * window is bypassed so the region's residual entries flush as
     * fast as the WPQ accepts them (a barrier at the region boundary
     * must not wait out the combining timer).
     */
    void setDraining(bool on) { draining = on; }

    /** Buffered line entries (telemetry occupancy view). */
    std::size_t queuedEntries() const { return entries.size(); }

    /** Line-entry capacity. */
    unsigned capacityEntries() const { return capacity; }

    std::uint64_t coalescedStores() const { return statCoalesced.value(); }
    std::uint64_t persistOps() const { return statOps.value(); }
    std::uint64_t fullStalls() const { return statFullStall.value(); }

    /** Set by Core::attachObserver of the owning core;
     *  MemHierarchy::powerFail carries it across the rebuild. */
    void setObserver(check::PipelineObserver *observer)
    {
        obs = observer;
    }
    check::PipelineObserver *observer() const { return obs; }

  private:
    /** Largest supported persist granularity (words per line). */
    static constexpr unsigned maxLineWords = 16;

    struct Entry
    {
        Addr lineAddr = 0;
        /** Word-granularity data carried by this persist op, indexed
         *  by word offset within the line; @ref wordMask marks which
         *  slots hold data. Inline storage keeps the per-store path
         *  allocation-free. */
        std::array<Word, maxLineWords> words{};
        std::uint32_t wordMask = 0;
        unsigned storeCount = 0;
        bool issued = false;
        Cycle ackCycle = 0;
        /** Cycle the entry was created (write-combining window). */
        Cycle bornCycle = 0;
    };

    unsigned capacity;
    unsigned lineBytes;
    unsigned coalesceWindow;
    bool draining = false;
    std::deque<Entry> entries;

    stats::Counter statCoalesced;
    stats::Counter statOps;
    stats::Counter statFullStall;

    check::PipelineObserver *obs = nullptr;
};

} // namespace ppa

#endif // PPA_MEM_WRITE_BUFFER_HH
