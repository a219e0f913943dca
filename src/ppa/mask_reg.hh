/**
 * @file
 * MaskReg — the Store Operands Mask Register (paper Section 4).
 *
 * One bit per physical register of the unified PRF (integer bank
 * followed by FP bank). A set bit means the register is used as the
 * data operand of a committed store in the current region and must not
 * be reclaimed until the region's stores are acknowledged persistent.
 * Per the paper's Section 4.2 optimization, only the *data* register
 * of each store is masked; store addresses are captured directly in
 * the CSQ entries.
 */

#ifndef PPA_PPA_MASK_REG_HH
#define PPA_PPA_MASK_REG_HH

#include "check/observer.hh"
#include "common/bitvector.hh"
#include "common/types.hh"

namespace ppa
{

/**
 * Global physical register numbering: the INT bank occupies
 * [0, numIntRegs) and the FP bank [numIntRegs, numIntRegs+numFpRegs).
 */
class PhysRegIndexer
{
  public:
    PhysRegIndexer() = default;

    PhysRegIndexer(unsigned num_int, unsigned num_fp)
        : intCount(num_int), fpCount(num_fp)
    {}

    unsigned total() const { return intCount + fpCount; }

    /** Flatten (class, index) into the global numbering. */
    unsigned
    flatten(RegClass cls, PhysReg reg) const
    {
        PPA_ASSERT(reg >= 0, "flattening invalid phys reg");
        if (cls == RegClass::Int) {
            PPA_ASSERT(static_cast<unsigned>(reg) < intCount,
                       "int phys reg out of range");
            return static_cast<unsigned>(reg);
        }
        PPA_ASSERT(static_cast<unsigned>(reg) < fpCount,
                   "fp phys reg out of range");
        return intCount + static_cast<unsigned>(reg);
    }

    /** Recover the class of a global index. */
    RegClass
    classOf(unsigned global) const
    {
        return global < intCount ? RegClass::Int : RegClass::Fp;
    }

    /** Recover the per-class index of a global index. */
    PhysReg
    indexOf(unsigned global) const
    {
        return global < intCount
                   ? static_cast<PhysReg>(global)
                   : static_cast<PhysReg>(global - intCount);
    }

  private:
    unsigned intCount = 0;
    unsigned fpCount = 0;
};

/**
 * The MaskReg bit vector. A thin wrapper over BitVector that exposes
 * the operations the pipeline performs and the checkpoint needs.
 */
class MaskReg
{
  public:
    MaskReg() = default;

    explicit MaskReg(const PhysRegIndexer &indexer)
        : idx(indexer), bits(indexer.total())
    {}

    /** Mask the data register of a committing store. */
    void
    mask(RegClass cls, PhysReg reg)
    {
        unsigned global = idx.flatten(cls, reg);
        bits.set(global);
        if (obs)
            obs->onMaskSet(global);
    }

    /** Is @p reg masked (reclamation must be deferred)? */
    bool
    isMasked(RegClass cls, PhysReg reg) const
    {
        return bits.test(idx.flatten(cls, reg));
    }

    /** Region boundary: clear every mask bit. */
    void
    clearAll()
    {
        if (obs)
            obs->onMaskClearAll(bits.count());
        bits.clearAll();
    }

    std::size_t maskedCount() const { return bits.count(); }
    bool empty() const { return bits.none(); }

    /** Iterate set bits as (class, per-class phys index). */
    template <typename Fn>
    void
    forEachMasked(Fn &&fn) const
    {
        bits.forEachSet([&](std::size_t g) {
            fn(idx.classOf(static_cast<unsigned>(g)),
               idx.indexOf(static_cast<unsigned>(g)));
        });
    }

    /** Size in bits (the paper rounds 348 up to 384 for checkpoints). */
    std::size_t sizeBits() const { return bits.size(); }

    const BitVector &raw() const { return bits; }
    void restore(const BitVector &v) { bits = v; }

    const PhysRegIndexer &indexer() const { return idx; }

    /** Set by Core::attachObserver; restore() fires no events
     *  (recovery resyncs). */
    void setObserver(check::PipelineObserver *observer) { obs = observer; }

  private:
    PhysRegIndexer idx;
    BitVector bits;
    check::PipelineObserver *obs = nullptr;
};

} // namespace ppa

#endif // PPA_PPA_MASK_REG_HH
