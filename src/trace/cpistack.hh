/**
 * @file
 * CPI-stack cycle attribution shared by all four core models.
 *
 * Every tick is charged to exactly one category, so the categories sum
 * to the core's cycle count — the invariant the trace CLI and the
 * test suite assert. The stack lives in a "cpi_stack" child StatGroup
 * of the core's stats, which means it folds automatically into
 * StatGroup::toJson() (and hence the sweep runner's per-job records)
 * and into flatten() under "<core>.cpi_stack.<category>".
 *
 * Attribution rules (see docs/INTERNALS.md, "Observability"):
 *  - base:     at least one instruction retired this cycle.
 *  - fetch:    nothing retired; the front end could not supply.
 *  - use_stall: nothing retired; an operand (or the divider) was not
 *    ready in non-speculative execution.
 *  - storebuf: nothing retired; a store found the store buffer full or
 *    the cache rejecting.
 *  - dq_full / ssq_full: SST speculating with the ahead strand blocked
 *    on a full deferred queue / speculative store queue.
 *  - replay:   all other in-speculation cycles of regions that commit
 *    (the overlapped-miss cycles the paper's win comes from).
 *  - rollback_discard: in-speculation cycles of regions later rolled
 *    back (wasted work; all of scout mode's speculation lands here).
 *  - coherence: nothing retired; the binding operand came from a load
 *    whose latency was inflated by coherence traffic (invalidation,
 *    intervention or upgrade), or from a line a remote writer stole.
 *  - value_pred: committed in-speculation cycles that ran while at
 *    least one predicted load value stood in for an unverified fill
 *    (the cycles value prediction converted from deferred stalls).
 *  - value_pred_waste: speculation cycles discarded because a
 *    predicted load value was wrong at fill verification.
 *  - other:    residual (e.g. a cycle spent performing a rollback).
 */

#ifndef SSTSIM_TRACE_CPISTACK_HH
#define SSTSIM_TRACE_CPISTACK_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"

namespace sst::trace
{

/** Where a cycle went. One category per cycle, no double counting. */
enum class CpiCat : std::uint8_t
{
    Base,
    Fetch,
    UseStall,
    StoreBuf,
    DqFull,
    SsqFull,
    Replay,
    RollbackDiscard,
    Coherence,
    ValuePred,
    ValuePredWaste,
    Other,
    NumCats
};

constexpr std::size_t numCpiCats =
    static_cast<std::size_t>(CpiCat::NumCats);

const char *cpiCatName(CpiCat cat);
const char *cpiCatDesc(CpiCat cat);

/** Per-category cycle counters registered as a "cpi_stack" child of
 *  @p parent (typically a core's StatGroup). */
class CpiStack
{
  public:
    explicit CpiStack(StatGroup &parent);

    void add(CpiCat cat, std::uint64_t n = 1)
    {
        *cats_[static_cast<std::size_t>(cat)] += n;
    }

    /** Re-attribute @p n cycles already charged to @p from. */
    void move(CpiCat from, CpiCat to, std::uint64_t n)
    {
        Scalar &src = *cats_[static_cast<std::size_t>(from)];
        src.set(src.value() - n);
        add(to, n);
    }

    std::uint64_t value(CpiCat cat) const
    {
        return cats_[static_cast<std::size_t>(cat)]->value();
    }

    /** Sum over all categories; equals the core's cycle count at every
     *  cycle (speculating cycles are charged provisionally and moved
     *  on rollback). */
    std::uint64_t total() const;

  private:
    StatGroup group_{"cpi_stack"};
    std::array<Scalar *, numCpiCats> cats_{};
};

} // namespace sst::trace

#endif // SSTSIM_TRACE_CPISTACK_HH
