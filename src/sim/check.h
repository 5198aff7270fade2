/**
 * @file
 * Coherence invariant checker: machine-checked trust for the
 * memory-system statistics.
 *
 * The paper's value rests on the simulated counters being exact, so
 * the protocol state they are derived from must be provably
 * consistent.  CoherenceChecker cross-validates the directory against
 * the per-processor cache line states and the traffic counters.  The
 * rules are parameterized by the configured Protocol descriptor
 * (legal-state set, owner-state set, clean-exclusive capability), so
 * one checker certifies every registered protocol:
 *
 *  - illegal-state:   every cached state is in the protocol's
 *    legalStates set (e.g. no Owned copy under MESI).
 *  - multiple-modified: at most one cache holds a line Modified.
 *  - exclusive-shared:  an Exclusive copy implies no other cached
 *    copy (and an exact sole-sharer directory entry).
 *  - owned-orphan:    an Owned copy exists only at the dirty owner of
 *    a dirty directory entry (which also bounds Owned to one copy).
 *  - sharer-missing:  every cached copy has its directory bit set.
 *  - sharer-stale:    with replacement hints the sharer vector is
 *    exact, so a set bit implies a cached copy; without hints the
 *    vector may only be a superset of the true sharers.
 *  - dirty-owner:     a dirty directory entry names a valid owner that
 *    is a sharer and holds the line in one of the protocol's owner
 *    states (Modified, or Owned/Sm where the protocol has them).
 *  - lazy-dirty-bound: protocols with a clean-exclusive state promote
 *    E->M on the fast path without consulting the directory, so a
 *    Modified copy under a clean entry is legal only while its holder
 *    is the sole sharer (reconcileDir repairs the entry at the next
 *    consult).  Any wider desync -- or any such copy under a protocol
 *    without clean-exclusive -- is corruption.
 *  - dir-entry-empty: directory entries are never erased; an entry
 *    with no sharers stands for an uncached line, so it must be clean
 *    (not dirty) and name no owner (owner == -1).
 *  - resident-count:  per line, the number of cached copies matches
 *    the sharer count (equality with hints, <= without).
 *  - traffic-conservation: every byte of data traffic was produced by
 *    exactly one line transfer or writeback -- the global
 *    generalization of the per-transaction debug asserts:
 *    sum(data bytes) == lineSize * (transfers + writebacks).
 *
 * Under Interconnect::Bus there is no directory to cross-validate, so
 * the rules restate the snoop-response contract over the tag arrays
 * alone (lines are enumerated through Cache::forEachResident):
 *
 *  - bus-illegal-state:    as illegal-state, per cached copy.
 *  - bus-multiple-owner:   at most one cache may answer a snoop as
 *    owner (hold the line in one of the protocol's owner states) --
 *    the single-owner-on-bus invariant.
 *  - bus-modified-shared:  a Modified copy answers "exclusive dirty",
 *    so no other cache may answer "shared" for the same line.
 *  - bus-exclusive-shared: likewise for clean-exclusive copies.
 *  - bus-traffic-conservation: data-phase occupancy matches the lines
 *    and word-update broadcasts that crossed the wires:
 *    sum(busDataCycles) == lineCycles * (transfers + writebacks)
 *                          + updateCycles * update broadcasts,
 *    and the directory byte counters stay untouched.
 *
 * The checker only reads simulator state; enabling it cannot perturb
 * any statistic.  MemSystem::setCheckPeriod() runs the full sweep
 * every N slow-path transactions (sampled mode, usable in Release);
 * debug builds additionally validate the touched line after every
 * transaction.  The checker is trusted because the fault-injection
 * harness (sim/faultinject.h) proves each invariant fires when the
 * corresponding corruption is seeded.
 */
#ifndef SPLASH2_SIM_CHECK_H
#define SPLASH2_SIM_CHECK_H

#include <cstddef>
#include <string>
#include <vector>

#include "base/types.h"
#include "sim/directory.h"

namespace splash::sim {

class MemSystem;

/** One detected inconsistency between directory, caches, or counters. */
struct Violation
{
    std::string rule;  ///< stable invariant id (e.g. "sharer-stale")
    std::string what;  ///< human-readable description
    Addr line = 0;     ///< affected line (0 for global invariants)
};

class CoherenceChecker
{
  public:
    explicit CoherenceChecker(const MemSystem& mem) : mem_(mem) {}

    /** Validate every directory entry, the per-processor resident
     *  counts, and traffic conservation.  Appends to @p out (if any)
     *  and returns the number of violations found. */
    std::size_t checkAll(std::vector<Violation>* out = nullptr) const;

    /** Validate the single line @p lineAddr (cheap: O(nprocs)); used
     *  as the debug-mode per-transaction pass. */
    std::size_t checkLine(Addr lineAddr,
                          std::vector<Violation>* out = nullptr) const;

    /** Validate global traffic conservation only. */
    std::size_t checkTraffic(std::vector<Violation>* out = nullptr) const;

  private:
    /** Per-line rules; @p d is null when the line was never cached. */
    void checkOneLine(Addr line, const DirEntry* d,
                      std::vector<Violation>* out, std::size_t& n) const;
    /** Per-line rules for the snoopy bus (no directory to consult). */
    void checkOneLineBus(Addr line, std::vector<Violation>* out,
                         std::size_t& n) const;

    const MemSystem& mem_;
};

/** Format a violation list for diagnostics ("rule: what" per line). */
std::string formatViolations(const std::vector<Violation>& v);

} // namespace splash::sim

#endif // SPLASH2_SIM_CHECK_H
