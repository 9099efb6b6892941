/**
 * @file
 * Launch-time safety analysis for SM-parallel ticking.
 *
 * SMs execute instructions *functionally at issue*, so two SMs
 * ticking concurrently could race on device memory if their blocks'
 * global stores can touch the same bytes a sibling block loads or
 * stores. This pass proves, per launch, that they cannot: it runs a
 * worklist abstract interpretation over the kernel's CFG in a
 * stride-interval affine domain — per register a sum of terms
 * `coeff * ((tid|ctaid >> shift) & mask)` plus a stride-interval
 * constant part — with widening at loop heads, so loops with affine
 * induction variables (reduction trees, tiled gemm, grid-stride
 * loops) analyze precisely instead of failing on the backward
 * branch.
 *
 * Cross-block disjointness of two accesses is decided by (1) plain
 * whole-grid range disjointness, or (2) a mixed-radix digit
 * argument: if the access form's digits (byte offset, each term,
 * the stride-interval part) nest — each coefficient at least the
 * previous digit's span — then a byte address uniquely determines
 * every digit, and if the ctaid bit-slices cover every bit ctaid
 * can set, equal cta digits force equal blocks. Interval arithmetic
 * is checked/saturating int64 (±inf sentinels); any overflow
 * degrades to an unbounded interval, so huge grids can only lose
 * precision, never "prove" disjointness by wrapping.
 *
 * Atomics pass the analysis unconditionally: their functional
 * read-modify-write is forwarded to the owning partition's accept
 * hook (they are already "serviced at the L2" in the timing model),
 * which runs under the coordinator barrier, so their order — and
 * therefore every verdict — is schedule-invariant.
 *
 * The verdict is a diagnostic: SM cores always tick on the engine's
 * coordinator thread in registration order, whatever it says. It is
 * reported per launch by `gpulat analyze` and in every
 * ExperimentRecord (`analysis.sm_parallel`, `analysisReason`).
 */

#ifndef GPULAT_GPU_KERNEL_ANALYSIS_HH
#define GPULAT_GPU_KERNEL_ANALYSIS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"
#include "isa/kernel.hh"

namespace gpulat {

/** @name Checked/saturating int64 helpers
 *
 * INT64_MIN/INT64_MAX double as -inf/+inf sentinels. A sentinel
 * operand propagates; a fresh overflow saturates to the sentinel of
 * the overflow direction. Interval transfer functions additionally
 * degrade the whole interval to unbounded on any fresh overflow
 * (see StrideInterval), because a wrapped concrete value is *not*
 * inside a one-sided-saturated interval.
 * @{
 */
inline constexpr std::int64_t kNegInf = INT64_MIN;
inline constexpr std::int64_t kPosInf = INT64_MAX;

std::int64_t satAdd(std::int64_t a, std::int64_t b);
std::int64_t satSub(std::int64_t a, std::int64_t b);
std::int64_t satMul(std::int64_t a, std::int64_t b);
/** @} */

/**
 * The numeric lattice of the analysis: the set
 * `{lo + k*stride : k >= 0} ∩ [lo, hi]` (stride 0 means the
 * singleton `lo == hi`). `lo > hi` encodes the empty set (an
 * unreachable refinement). Bounds use the ±inf sentinels.
 */
struct StrideInterval
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::uint64_t stride = 0;

    static StrideInterval constant(std::int64_t v)
    {
        return StrideInterval{v, v, 0};
    }
    /** The unbounded interval (top of the lattice). */
    static StrideInterval full()
    {
        return StrideInterval{kNegInf, kPosInf, 1};
    }

    bool empty() const { return lo > hi; }
    bool singleton() const { return lo == hi; }
    bool bounded() const { return lo != kNegInf && hi != kPosInf; }

    /** Clamp `hi` onto the stride grid anchored at `lo`. */
    StrideInterval normalized() const;

    static StrideInterval add(const StrideInterval &a,
                              const StrideInterval &b);
    static StrideInterval sub(const StrideInterval &a,
                              const StrideInterval &b);
    static StrideInterval mulConst(const StrideInterval &a,
                                   std::int64_t m);
    /** Logical shift right by @p k (uint64 semantics). */
    static StrideInterval shrConst(const StrideInterval &a,
                                   unsigned k);
    static StrideInterval andConst(const StrideInterval &a,
                                   std::int64_t mask);
    /** Least upper bound. */
    static StrideInterval join(const StrideInterval &a,
                               const StrideInterval &b);
    /** Widening: escaping bounds jump straight to ±inf. */
    static StrideInterval widen(const StrideInterval &prev,
                                const StrideInterval &next);
    /** Intersect with `value cmp rhs` (may come back empty). */
    static StrideInterval meetCmp(const StrideInterval &a, CmpOp cmp,
                                  std::int64_t rhs);

    bool operator==(const StrideInterval &o) const
    {
        return lo == o.lo && hi == o.hi && stride == o.stride;
    }
};

/** Whole-grid byte range one global access can touch. */
struct FootprintRange
{
    std::int64_t lo = 0; ///< inclusive (kNegInf = unbounded)
    std::int64_t hi = 0; ///< exclusive (kPosInf = unbounded)
    bool store = false;
};

/** One global access site, for reports and `gpulat analyze`. */
struct AccessFootprint
{
    std::uint32_t pc = 0;
    bool store = false;
    bool atomic = false;
    /** Address was resolved by the affine domain. */
    bool affine = false;
    /** Printable affine form, e.g. "8*tid + 2048*(ctaid>>2) + c". */
    std::string form;
    /** Byte interval of block 0 (cta terms pinned to 0). */
    std::int64_t blockLo = 0;
    std::int64_t blockHi = 0;
    /** Whole-grid byte interval. */
    std::int64_t gridLo = 0;
    std::int64_t gridHi = 0;
};

/** Outcome of the launch-time SM-parallel safety analysis. */
struct SmParallelVerdict
{
    /** True if SMs may tick concurrently during this launch. */
    bool safe = false;
    /** Human-readable justification (stall reports / tests). */
    std::string reason;
    /** Step-by-step derivation (printed by `gpulat analyze`). */
    std::vector<std::string> reasonChain;

    /**
     * @name Whole-grid global footprint
     *
     * When `footprintKnown`, @p footprint holds a superset byte
     * range for every non-atomic global access the launch can
     * perform, across its whole grid (printed by `gpulat analyze`).
     * Defaults are the conservative direction (unknown footprint,
     * assume stores), which is what every early-unsafe path leaves
     * in place. Forwarded atomics are excluded: their functional
     * execution happens under the coordinator barrier in arrival
     * order, which no tick schedule can perturb.
     * @{
     */
    bool footprintKnown = false;
    bool hasStore = true;
    std::vector<FootprintRange> footprint;
    /** @} */

    /** @name Analysis introspection (tests, `gpulat analyze`) @{ */
    std::vector<AccessFootprint> accesses;
    unsigned cfgBlocks = 0;
    unsigned loopHeads = 0;
    unsigned fixpointIterations = 0;
    /** @} */
};

/**
 * Decide whether a launch can tick its SMs concurrently.
 *
 * Conservative: any construct the domain cannot model
 * (data-dependent store addresses, potentially overlapping
 * cross-block footprints, a non-converging fixpoint) yields
 * `safe == false`. Local and shared accesses are always
 * block/thread-private and never serialize; atomics are exempt via
 * partition forwarding.
 */
SmParallelVerdict
analyzeSmParallelSafety(const Kernel &kernel, unsigned numBlocks,
                        unsigned threadsPerBlock,
                        const std::array<RegValue, kMaxParams> &params);

} // namespace gpulat

#endif // GPULAT_GPU_KERNEL_ANALYSIS_HH
