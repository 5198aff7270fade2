/**
 * @file
 * The canonical Figure-3 operating-point grid.
 *
 * The paper sweeps miss rate over power-of-two cache capacities from
 * 1 KB to 1 MB at 1-, 2-, and 4-way set associativity plus fully
 * associative LRU.  Exactly one definition of that grid exists --
 * here -- and the sweep (SweepConfig's defaults), the reuse-distance
 * model, and every CSV writer consume it, so the committed results
 * files can never drift from the simulated points.  A caller that
 * reads fewer columns lists fewer (Table 2 sweeps {4} only).
 */
#ifndef SPLASH2_SIM_GRID_H
#define SPLASH2_SIM_GRID_H

#include <cstdint>
#include <vector>

namespace splash::sim {

/** In a stored associativity list, 0 denotes fully associative LRU. */
constexpr int kFullyAssoc = 0;

/** Figure-3 cache capacities in bytes: 1 KB .. 1 MB, powers of two. */
inline const std::vector<std::uint64_t>&
fig3Sizes()
{
    static const std::vector<std::uint64_t> sizes = {
        1u << 10, 1u << 11, 1u << 12, 1u << 13, 1u << 14, 1u << 15,
        1u << 16, 1u << 17, 1u << 18, 1u << 19, 1u << 20};
    return sizes;
}

/** Figure-3 associativities, in the column order of the per-size
 *  CSV/report rows: the finite ways first, then fully associative.
 *  SweepConfig::assocs defaults to this list. */
inline const std::vector<int>&
fig3ReportAssocs()
{
    static const std::vector<int> assocs = {1, 2, 4, kFullyAssoc};
    return assocs;
}

} // namespace splash::sim

#endif // SPLASH2_SIM_GRID_H
