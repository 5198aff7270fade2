/**
 * @file
 * The multiprocessor memory-system simulator.
 *
 * Models the machine of the SPLASH-2 paper: a cache-coherent shared
 * address space multiprocessor with physically distributed memory, one
 * processor per node, a single-level cache per processor kept coherent
 * by a directory-based protocol, and replacement hints so sharer lists
 * stay exact.  Timing is PRAM (every access completes in one cycle),
 * so the simulator records *events and traffic*, never latency.
 *
 * The coherence state machine itself is data: MemSystem executes the
 * Transition table of the configured Protocol (sim/protocol.h; the
 * paper's Illinois MESI is the default).  Slow-path transactions are
 * (event, directory-group) lookups; hits are screened by the
 * protocol's precomputed silent-hit masks.
 *
 * Traffic model (all control packets and data headers are
 * `overheadBytes` long, data transfers are one line):
 *
 *  - Every miss sends a request packet to the line's home.
 *  - Clean lines are supplied by home memory (local data if the
 *    requester is the home, else remote data + header).
 *  - Dirty lines are supplied cache-to-cache: intervention packet to
 *    the owner, data reply to the requester, and -- where the protocol
 *    says memory picks up the line (MESI/MSI read of a dirty line) --
 *    a sharing writeback to the home.
 *  - Write transactions send an invalidation (or, under Dragon, a
 *    word update) to each other sharer and collect one ack each.
 *  - Replacing a clean line sends a replacement hint to the home;
 *    replacing a line in one of the protocol's owner states (M, and
 *    O/Sm where they exist) writes the line back.
 *
 * Under Interconnect::Bus (sim/bus.h) the same Transition tables are
 * executed against a snoopy broadcast bus instead: the combined snoop
 * response replaces the directory consult, one broadcast replaces the
 * per-sharer invalidation/ack packets, and bus-occupancy cycle charges
 * replace the packet/byte decomposition above.
 */
#ifndef SPLASH2_SIM_MEMSYS_H
#define SPLASH2_SIM_MEMSYS_H

#include <memory>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/classify.h"
#include "sim/config.h"
#include "sim/directory.h"
#include "sim/linetable.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace splash::sim {

class CoherenceChecker;  // sim/check.h
class FaultInjector;     // sim/faultinject.h

/** A RefSink: attach it to an rt::Env or feed it a replayed trace.
 *  Sync edges and placement records are ignored -- homes come from
 *  the HomeResolver given at construction. */
class MemSystem final : public RefSink
{
  public:
    /** @param homes maps lines to home nodes; if null, lines are
     *  interleaved across nodes at line granularity. */
    explicit MemSystem(const MachineConfig& cfg,
                       const HomeResolver* homes = nullptr);

    /** Issue one memory reference from processor @p p.  References that
     *  straddle a line boundary are split per line (each affected line
     *  goes through the full protocol) but count as a single read or
     *  write.
     *
     *  Inlined hit fast path: a read hit in any valid state and a
     *  write hit in one of the protocol's silent-hit states touch only
     *  the requester's tag array (the hit way moves to the front of its
     *  set; writes take the protocol's silent promotion), the
     *  classifier's per-word write clock, and the per-processor
     *  counters.  Directory lookup, home resolution, and traffic
     *  accounting happen only on the slow paths; the directory's dirty
     *  bit is reconciled lazily (see reconcileDir). */
    void
    access(ProcId p, Addr addr, int size, AccessType type)
    {
        ensure(p >= 0 && p < cfg_.nprocs, "processor id out of range");
        Addr line = lineOf(addr);
        if (lineOf(addr + size - 1) == line) [[likely]] {
            if (type == AccessType::Read) {
                ++stats_[p].reads;
                if (caches_[p].probeFor(line, AccessType::Read) !=
                    LineState::Invalid) [[likely]]
                    return;  // read hit: tag array only
                readMiss(p, line, addr, size);
            } else {
                ++stats_[p].writes;
                LineState st =
                    caches_[p].probeFor(line, AccessType::Write);
                if (stateIn(writeSilent_, st)) [[likely]] {
                    // Silent write hit; any in-place promotion (the
                    // Illinois E->M) was applied by the cache,
                    // directory reconciliation deferred.
                    classifier_.recordWrite(addr, size);
                    return;
                }
                writeSlow(p, line, addr, size, st);
            }
            return;
        }
        accessMulti(p, addr, size, type);
    }

    void
    access(const AccessRec& r) override
    {
        access(r.proc, r.addr, r.size, r.type);
    }

    void
    accessBatch(const AccessRec* recs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            access(recs[i].proc, recs[i].addr, recs[i].size,
                   recs[i].type);
    }

    const MachineConfig& config() const { return cfg_; }

    const MemStats& procStats(ProcId p) const { return stats_[p]; }

    /** Aggregate statistics over all processors. */
    MemStats total() const;

    /** Zero all statistics while preserving cache, directory, and
     *  classification state (for measuring past cold start). */
    void resetStats() override;

    // --- introspection for tests -------------------------------------
    LineState lineState(ProcId p, Addr addr) const;
    const DirEntry* dirEntry(Addr addr) const;

    /** Check protocol invariants over the whole directory (at most one
     *  Modified copy, sharer lists consistent with caches, Exclusive
     *  implies sole sharer). Returns true when consistent.  Convenience
     *  wrapper over CoherenceChecker (sim/check.h). */
    bool checkCoherenceInvariants() const;

    /** Run the full CoherenceChecker sweep every @p period slow-path
     *  transactions (0 disables sampling).  Violations panic with a
     *  rule-by-rule report.  Debug builds additionally validate the
     *  touched line after every slow-path transaction regardless of
     *  the period.  The checker only reads state, so enabling it
     *  cannot change any statistic. */
    void setCheckPeriod(std::uint64_t period) { checkPeriod_ = period; }
    std::uint64_t checkPeriod() const { return checkPeriod_; }

  private:
    friend class CoherenceChecker;
    friend class FaultInjector;
    /** Rare line-straddling reference: split per line, count once. */
    void accessMulti(ProcId p, Addr addr, int size, AccessType type);
    /** Slow paths (counters for the reference already bumped). */
    void readMiss(ProcId p, Addr lineAddr, Addr addr, int size);
    void writeSlow(ProcId p, Addr lineAddr, Addr addr, int size,
                   LineState st);
    /** The fast path promotes E->M without consulting the directory;
     *  bring the directory entry up to date before it is read. */
    void reconcileDir(Addr lineAddr, DirEntry& d);
    /** Execute the protocol's Transition for @p ev on @p lineAddr,
     *  dispatching on the configured interconnect.  Returns the
     *  executed cell (for the debug traffic asserts). */
    const Transition&
    runTransition(ProcId p, Addr lineAddr, ProtoEvent ev, MissType mt)
    {
        return cfg_.interconnect == Interconnect::Bus
                   ? runBusTransition(p, lineAddr, ev, mt)
                   : runDirTransition(p, lineAddr, ev, mt);
    }
    /** Directory organization: request packet to the home, directory
     *  consult, per-sharer invalidation/update/ack packets,
     *  directory finalization. */
    const Transition& runDirTransition(ProcId p, Addr lineAddr,
                                       ProtoEvent ev, MissType mt);
    /** Bus organization: broadcast address phase, combined snoop
     *  response in place of the directory consult, occupancy charges
     *  in place of the packet decomposition.  No sharer vectors, no
     *  homes, no replacement hints, no reconciliation (snooping sees
     *  silent E->M promotions directly). */
    const Transition& runBusTransition(ProcId p, Addr lineAddr,
                                       ProtoEvent ev, MissType mt);
    void installLine(ProcId p, Addr lineAddr, LineState st);
    void evictVictim(ProcId p, const Cache::Victim& v);

    /** Control packet src -> dst: remote overhead unless src == dst. */
    void packet(ProcId p, ProcId src, ProcId dst);
    /** One-line data transfer src -> dst for a miss of type @p mt. */
    void dataTransfer(ProcId p, ProcId src, ProcId dst, MissType mt);
    /** Dirty-line writeback src -> home. */
    void writebackTransfer(ProcId p, ProcId src, ProcId home);

    // --- bus-occupancy accounting (Interconnect::Bus) ----------------
    /** Address phase of one broadcast transaction. */
    void busTransaction(ProcId p);
    /** Line data phase (owner or memory drives the wires). */
    void busLineTransfer(ProcId p, MissType mt);
    /** Victim writeback: its own transaction (address + line data). */
    void busWriteback(ProcId p);
    /** One Dragon word-update broadcast (reaches every holder). */
    void busUpdate(ProcId p);

    ProcId homeOf(Addr lineAddr) const;
    Addr lineOf(Addr a) const { return alignDown(a, cfg_.cache.lineSize); }

    /** Invariant-checker hook, called at the end of every slow-path
     *  transaction with the line it touched. */
    void maybeCheck(Addr lineAddr);

    MachineConfig cfg_;
    /** Registered protocol descriptor (static lifetime). */
    const Protocol& proto_;
    /** Bus-occupancy charge table (Interconnect::Bus only). */
    BusModel bus_;
    /** proto_.silentHit[Write], cached for the inlined fast path. */
    std::uint8_t writeSilent_;
    const HomeResolver* homes_;
    InterleavedHome defaultHomes_;
    std::vector<Cache> caches_;
    /** Full-map directory.  Entries are never erased: one with no
     *  sharers stands for an uncached line (clean, no owner). */
    LineTable<DirEntry> dir_;
    MissClassifier classifier_;
    std::vector<MemStats> stats_;

    /** Always-on transfer counts backing the checker's global traffic-
     *  conservation rule: every byte in the per-processor data counters
     *  must come from exactly one of these line movements. */
    std::uint64_t xferLines_ = 0;  ///< line transfers since reset
    std::uint64_t wbLines_ = 0;    ///< writebacks since reset
    std::uint64_t updateTxns_ = 0; ///< bus word-update broadcasts since reset

    std::uint64_t checkPeriod_ = 0;  ///< full sweep every N txns (0 = off)
    std::uint64_t sinceCheck_ = 0;   ///< txns since the last full sweep

#ifndef NDEBUG
    /** Traffic-conservation invariant, checked per line transaction in
     *  debug builds: a miss moves exactly one line of data, at most two
     *  writebacks accompany it (victim + sharing), and the byte
     *  counters grow by lineSize * (transfers + writebacks) exactly.
     *  Guards the fast path against silently dropping accounting. */
    struct TxCheck
    {
        std::uint64_t bytesBefore = 0;
        std::uint64_t busCyclesBefore = 0;
        int dataTransfers = 0;
        int writebacks = 0;
        int updates = 0;
    };
    TxCheck tx_;
    std::uint64_t dataBytes(ProcId p) const;
    void txBegin(ProcId p);
    void txEnd(ProcId p, int expectData);
#endif
};

} // namespace splash::sim

#endif // SPLASH2_SIM_MEMSYS_H
