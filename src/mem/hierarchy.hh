/**
 * @file
 * The full memory hierarchy as seen by the cores.
 *
 * Private L1D per core, shared L2, optional L3 (Section 7.6), a
 * direct-mapped DRAM cache (PMEM memory mode), and the NVM device.
 * Three operating modes cover the paper's systems:
 *
 *  - memory mode (baseline & PPA): DRAM cache enabled; dirty evictions
 *    from the DRAM cache write back to NVM. Under PPA, committed
 *    stores additionally flow value-exact through per-core write
 *    buffers to NVM (asynchronous store persistence), and cache lines
 *    are left clean so no double writeback occurs.
 *  - app-direct / eADR-BBB (ideal PSP): DRAM cache disabled; NVM is
 *    the main memory directly.
 *  - DRAM-only: a volatile system with flat DRAM latency (Figure 9's
 *    reference).
 */

#ifndef PPA_MEM_HIERARCHY_HH
#define PPA_MEM_HIERARCHY_HH

#include <optional>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/mem_image.hh"
#include "mem/nvm.hh"
#include "mem/params.hh"
#include "mem/write_buffer.hh"
#include "ppa/io_buffer.hh"

namespace ppa
{

/** Result of attempting to merge a committed store into L1D. */
struct StoreMergeResult
{
    /** False when the persist path (WB) is full; retry next cycle. */
    bool accepted = true;
    /** Cycle at which the merge (incl. any line fill) completes. */
    Cycle completeCycle = 0;
};

/**
 * Memory hierarchy shared by all cores of a simulated system.
 */
class MemHierarchy
{
  public:
    /**
     * @param params     geometry/latency configuration
     * @param num_cores  number of cores (private L1Ds and WBs)
     * @param clock      core clock for ns->cycle conversions
     */
    MemHierarchy(const MemSystemParams &params, unsigned num_cores,
                 const ClockDomain &clock);

    /**
     * Timing for a load by @p core_id; updates tags and cascades
     * victims. Returns the completion cycle.
     */
    Cycle load(unsigned core_id, Addr addr, Cycle now);

    /**
     * Instruction fetch by @p core_id: L1I, then the unified levels.
     * Returns the completion cycle (equal to @p now +hit latency on
     * an L1I hit, which the pipelined front end absorbs).
     */
    Cycle instFetch(unsigned core_id, Addr addr, Cycle now);

    /** True when @p addr currently hits in core @p core_id's L1I. */
    bool instHitsL1I(unsigned core_id, Addr addr) const;

    /**
     * Merge a committed store into L1D. With @p persist true (PPA),
     * the store also enters the asynchronous persist path carrying its
     * exact value.
     */
    StoreMergeResult storeMerge(unsigned core_id, Addr addr, Word value,
                                Cycle now, bool persist);

    /**
     * Synchronously write @p addr's line back to NVM (the clwb path of
     * the ReplayCache baseline); returns the ack cycle.
     */
    Cycle clwbLine(unsigned core_id, Addr addr, Cycle now);

    /** Advance asynchronous machinery (WB issue/ack). */
    void tick(Cycle now);

    /** Outstanding persist count for @p core_id (the L1D counter). */
    unsigned outstandingPersists(unsigned core_id, Cycle now);

    /**
     * End-of-run drain: push all dirty state to NVM (or simply settle,
     * for DRAM-only). Returns the cycle by which memory is quiescent.
     */
    Cycle drainAll(Cycle now);

    /**
     * Power failure: volatile contents (SRAM caches, DRAM cache,
     * write-buffer entries not yet in the WPQ) are lost. WPQ entries
     * are inside the ADR domain and already applied to the NVM image.
     */
    void powerFail();

    /** The architectural (committed) memory image. */
    MemImage &committed() { return committedImage; }
    const MemImage &committed() const { return committedImage; }

    /** The persisted (NVM) memory image. */
    MemImage &nvmImage() { return persistedImage; }
    const MemImage &nvmImage() const { return persistedImage; }

    /** Direct NVM write used by recovery replay and initialization. */
    void recoveryWrite(Addr addr, Word value);

    /**
     * Synchronous persistent write of an atomic RMW under PPA: the
     * sync primitive's own store is persisted before it commits
     * (Section 6), so it is never replayed (replaying an RMW would
     * not be idempotent). Returns the NVM ack cycle.
     */
    Cycle atomicPersistWrite(unsigned core_id, Addr addr, Word value,
                             Cycle now);

    /** Seed both images with initial contents (program data). */
    void initializeWord(Addr addr, Word value);

    Nvm &nvm() { return nvmDevice; }
    /** The battery-backed I/O window (Section 5); may be disabled. */
    IoBuffer &ioBuffer() { return ioWindow; }
    const IoBuffer &ioBuffer() const { return ioWindow; }
    Cache &l1d(unsigned core_id) { return l1dCaches[core_id]; }
    Cache &l2() { return l2Cache; }
    WriteBuffer &writeBuffer(unsigned core_id)
    {
        return writeBuffers[core_id];
    }

    double
    l2MissRatio() const
    {
        return l2Cache.missRatio();
    }

    const MemSystemParams &params() const { return cfg; }

  private:
    /**
     * Handle a dirty victim evicted from the level above; returns the
     * stall (cycles) the evicting access absorbs when the victim's
     * writeback is blocked on a full WPQ (the fill cannot complete
     * until the victim has somewhere to go).
     */
    Cycle cascadeVictim(unsigned level_below_l1, Addr victim_line,
                        Cycle now);

    /** Write a full line (from the committed image) back to NVM;
     *  returns the WPQ-acceptance stall. */
    Cycle writebackLineToNvm(Addr line_addr, Cycle now);

    MemSystemParams cfg;
    unsigned numCores;
    ClockDomain clock;

    // Every part is held by value, so the defaulted copy is a
    // complete, independent copy of the memory system (System::fork).
    std::vector<Cache> l1iCaches;
    std::vector<Cache> l1dCaches;
    Cache l2Cache;
    std::optional<Cache> l3Cache;
    std::optional<DramCache> dramCacheModel;
    Nvm nvmDevice;
    std::vector<WriteBuffer> writeBuffers;

    MemImage committedImage;
    MemImage persistedImage;
    IoBuffer ioWindow;

    Cycle dramOnlyLatency;
};

} // namespace ppa

#endif // PPA_MEM_HIERARCHY_HH
