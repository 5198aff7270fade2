/**
 * @file
 * Set-associative write-back cache tag array with exact LRU replacement.
 *
 * This models one processor's single-level cache in a directory-based
 * coherence protocol (sim/protocol.h).  Only tags and coherence state
 * are kept; data values live in the application's real memory (PRAM
 * timing means the simulator never needs the bytes themselves).
 *
 * Two internal organizations are used.  Associativities up to 16 probe
 * a contiguous way array (the hot path for the paper's 4-way caches):
 * each way is one word, the line address with its LineState in the low
 * three bits (lines are at least 8 bytes), and each set is kept most
 * recently used first, so a hit or a fill moves its way to the front
 * and the victim is the first empty way, else the last.  That order is
 * exact LRU; coherence state changes (setState, invalidate) leave it
 * alone.  Larger or full associativity (--assoc 0, --assoc above 16,
 * off the paper machine's path) keeps a hash map plus an LRU list so
 * that fully associative simulations stay O(1) per access.
 */
#ifndef SPLASH2_SIM_CACHE_H
#define SPLASH2_SIM_CACHE_H

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "sim/config.h"
#include "sim/protocol.h"

namespace splash::sim {

/** One processor's cache. Addresses passed in are line-aligned. */
class Cache
{
  public:
    explicit Cache(const CacheConfig& cfg,
                   const Protocol& proto = protocol(ProtocolKind::MESI));

    /** Result of inserting a line: the replaced victim, if any. */
    struct Victim
    {
        bool valid = false;
        Addr lineAddr = 0;
        LineState state = LineState::Invalid;
    };

    /** Hot-path lookup for MemSystem::access: on a hit moves the way
     *  to the front of its set and applies the protocol's silent write
     *  promotion in place (the Illinois E->M: the directory learns
     *  lazily).  The promotion table comes from the Protocol
     *  descriptor, so this is the same rule the slow path uses.
     *  Returns the pre-promotion state; Invalid on miss.  Inline so
     *  the common hit needs no call. */
    LineState
    probeFor(Addr lineAddr, AccessType type)
    {
        if (big_) [[unlikely]]
            return probeForBig(lineAddr, type);
        Addr* base = &sets_[setIndex(lineAddr) * ways_];
        for (int w = 0; w < ways_; ++w) {
            Addr e = base[w];
            if (holds(e, lineAddr)) {
                LineState st = stateOf(e);
                if (type == AccessType::Write)
                    e = lineAddr |
                        static_cast<Addr>(writeNext_[static_cast<int>(st)]);
                for (; w > 0; --w)
                    base[w] = base[w - 1];
                base[0] = e;
                return st;
            }
        }
        return LineState::Invalid;
    }

    /** Look up without touching the recency order (for external
     *  queries). */
    LineState peek(Addr lineAddr) const;

    /** Change the state of a resident line. The line must be present. */
    void setState(Addr lineAddr, LineState st);

    /** Insert @p lineAddr with state @p st at the front of its set,
     *  evicting the set's least recently used line if no way is empty.
     *  The line must not already be present. */
    Victim fill(Addr lineAddr, LineState st);

    /** Drop a line (coherence invalidation). No-op if absent. */
    void invalidate(Addr lineAddr);

    int lineSize() const { return cfg_.lineSize; }
    const CacheConfig& config() const { return cfg_; }

    /** Number of currently valid lines (for tests). */
    std::uint64_t residentLines() const;

    /** Visit every valid line as fn(lineAddr, state), in storage
     *  order.  Bus mode has no directory to enumerate lines through,
     *  so the invariant checker and fault injector walk the tag
     *  arrays directly. */
    template <typename Fn>
    void
    forEachResident(Fn&& fn) const
    {
        if (big_) {
            for (const auto& [addr, st] : lru_)
                fn(addr, st);
        } else {
            for (Addr w : sets_)
                if (w != 0)
                    fn(w & ~kStateMask, stateOf(w));
        }
    }

  private:
    /** A way is lineAddr | state; 0 is an empty way (a valid way of
     *  line 0 still carries a nonzero state). */
    static constexpr Addr kStateMask = 7;
    static_assert(kNumLineStates <= 8,
                  "a LineState must fit a way's low three bits");

    /** Way @p w holds @p lineAddr in a valid state: their XOR is then
     *  the state, 1..7; an empty or foreign way gives 0 - 1 or >= 8. */
    static bool
    holds(Addr w, Addr lineAddr)
    {
        return (w ^ lineAddr) - 1 < kStateMask;
    }
    static LineState
    stateOf(Addr w)
    {
        return static_cast<LineState>(w & kStateMask);
    }

    std::uint64_t
    setIndex(Addr lineAddr) const
    {
        return (lineAddr >> lineShift_) & (numSets_ - 1);
    }
    Addr* findWay(Addr lineAddr);
    const Addr* findWay(Addr lineAddr) const;
    LineState probeForBig(Addr lineAddr, AccessType type);

    CacheConfig cfg_;
    int ways_;
    int lineShift_;
    std::uint64_t numSets_;

    /** Protocol's silent write-hit promotion, copied at construction
     *  (identity for states with no silent upgrade). */
    LineState writeNext_[kNumLineStates];

    /** Small-associativity storage: numSets_ sets of ways_ ways, each
     *  set most recently used first. */
    std::vector<Addr> sets_;

    /** Large/full associativity: hash map + LRU list. */
    bool big_ = false;
    std::list<std::pair<Addr, LineState>> lru_;  // front = most recent
    std::unordered_map<Addr, std::list<std::pair<Addr, LineState>>::iterator>
        index_;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_CACHE_H
