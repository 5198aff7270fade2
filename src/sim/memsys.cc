#include "sim/memsys.h"

#include <algorithm>

#include "base/log.h"
#include "sim/check.h"

namespace splash::sim {

namespace {
/** @p cfg once it is known to be valid: the members sized from it are
 *  built only after this check. */
const MachineConfig&
validated(const MachineConfig& cfg)
{
    cfg.validate();
    return cfg;
}
} // namespace

MemSystem::MemSystem(const MachineConfig& cfg, const HomeResolver* homes)
    : cfg_(validated(cfg)), proto_(protocol(cfg.protocol)),
      bus_{cfg.cache.lineSize, cfg.busWidthBytes},
      writeSilent_(proto_.silentHit[static_cast<int>(AccessType::Write)]),
      homes_(cfg.placedHomes ? homes : nullptr),
      defaultHomes_(cfg.nprocs, cfg.cache.lineSize),
      classifier_(cfg.nprocs, cfg.cache.lineSize), stats_(cfg.nprocs)
{
    caches_.reserve(cfg_.nprocs);
    for (int p = 0; p < cfg_.nprocs; ++p)
        caches_.emplace_back(cfg_.cache, proto_);
}

ProcId
MemSystem::homeOf(Addr lineAddr) const
{
    ProcId h = homes_ ? homes_->homeOf(lineAddr)
                      : defaultHomes_.homeOf(lineAddr);
    ensure(h >= 0 && h < cfg_.nprocs, "home node out of range");
    return h;
}

#ifndef NDEBUG
std::uint64_t
MemSystem::dataBytes(ProcId p) const
{
    const MemStats& s = stats_[p];
    return s.remoteSharedData + s.remoteColdData +
           s.remoteCapacityData + s.remoteWriteback + s.localData;
}

void
MemSystem::txBegin(ProcId p)
{
    tx_.bytesBefore = dataBytes(p);
    tx_.busCyclesBefore = stats_[p].busDataCycles;
    tx_.dataTransfers = 0;
    tx_.writebacks = 0;
    tx_.updates = 0;
}

void
MemSystem::txEnd(ProcId p, int expectData)
{
    ensure(tx_.dataTransfers == expectData,
           "traffic conservation: wrong line supply count");
    ensure(tx_.writebacks <= 2,
           "traffic conservation: more than victim + sharing writeback");
    if (cfg_.interconnect == Interconnect::Bus) {
        // Occupancy replaces the byte decomposition: data-phase cycles
        // must match the lines and word updates that crossed the wires,
        // and the directory byte counters must not move at all.
        std::uint64_t cycles =
            std::uint64_t(bus_.lineCycles()) *
                std::uint64_t(tx_.dataTransfers + tx_.writebacks) +
            std::uint64_t(bus_.updateCycles()) *
                std::uint64_t(tx_.updates);
        ensure(stats_[p].busDataCycles - tx_.busCyclesBefore == cycles,
               "bus occupancy conservation: cycles != phases charged");
        ensure(dataBytes(p) == tx_.bytesBefore,
               "bus occupancy conservation: directory byte counter "
               "moved in bus mode");
        return;
    }
    std::uint64_t moved =
        std::uint64_t(cfg_.cache.lineSize) *
        std::uint64_t(tx_.dataTransfers + tx_.writebacks);
    ensure(dataBytes(p) - tx_.bytesBefore == moved,
           "traffic conservation: bytes supplied != bytes accounted");
}
#endif

void
MemSystem::accessMulti(ProcId p, Addr addr, int size, AccessType type)
{
    if (type == AccessType::Read)
        ++stats_[p].reads;
    else
        ++stats_[p].writes;

    Addr first = lineOf(addr);
    Addr last = lineOf(addr + size - 1);
    for (Addr line = first; line <= last; line += cfg_.cache.lineSize) {
        Addr lo = std::max(addr, line);
        Addr hi = std::min<Addr>(addr + size, line + cfg_.cache.lineSize);
        int sz = static_cast<int>(hi - lo);
        if (type == AccessType::Read) {
            if (caches_[p].probeFor(line, AccessType::Read) ==
                LineState::Invalid)
                readMiss(p, line, lo, sz);
        } else {
            LineState st = caches_[p].probeFor(line, AccessType::Write);
            if (stateIn(writeSilent_, st))
                classifier_.recordWrite(lo, sz);
            else
                writeSlow(p, line, lo, sz, st);
        }
    }
}

void
MemSystem::readMiss(ProcId p, Addr lineAddr, Addr addr, int size)
{
#ifndef NDEBUG
    txBegin(p);
#endif
    MissType mt = classifier_.classifyMiss(p, addr, size);
    ++stats_[p].misses[static_cast<int>(mt)];
    runTransition(p, lineAddr, ProtoEvent::ReadMiss, mt);
#ifndef NDEBUG
    txEnd(p, /*expectData=*/1);
#endif
    maybeCheck(lineAddr);
}

void
MemSystem::writeSlow(ProcId p, Addr lineAddr, Addr addr, int size,
                     LineState st)
{
#ifndef NDEBUG
    txBegin(p);
#endif
    [[maybe_unused]] int expectData;
    if (st != LineState::Invalid) {
        // Non-silent write hit: permissions move (and, under Dragon,
        // updates broadcast), but no line is supplied.
        ++stats_[p].upgrades;
        const Transition& t =
            runTransition(p, lineAddr, ProtoEvent::WriteHit,
                          MissType::Cold /*unused: no data supply*/);
        expectData = t.supply == Supply::None ? 0 : 1;
    } else {
        MissType mt = classifier_.classifyMiss(p, addr, size);
        ++stats_[p].misses[static_cast<int>(mt)];
        runTransition(p, lineAddr, ProtoEvent::WriteMiss, mt);
        expectData = 1;
    }
    classifier_.recordWrite(addr, size);
#ifndef NDEBUG
    txEnd(p, expectData);
#endif
    maybeCheck(lineAddr);
}

void
MemSystem::maybeCheck(Addr lineAddr)
{
    CoherenceChecker chk(*this);
    std::vector<Violation> v;
#ifndef NDEBUG
    // Debug builds validate the touched line after every transaction;
    // O(nprocs), so it rides along with the existing tx_ asserts.
    chk.checkLine(lineAddr, &v);
#else
    (void)lineAddr;
#endif
    if (checkPeriod_ != 0 && ++sinceCheck_ >= checkPeriod_) {
        sinceCheck_ = 0;
        chk.checkAll(&v);
    }
    if (!v.empty())
        panic("coherence invariant violated:\n" + formatViolations(v));
}

void
MemSystem::reconcileDir(Addr lineAddr, DirEntry& d)
{
    // A silent E->M promotion leaves the directory believing the line
    // is clean with one sharer.  Detect that state by peeking the sole
    // holder and record the deferred ownership.
    if (!d.dirty && d.numSharers() == 1) {
        ProcId q = static_cast<ProcId>(__builtin_ctzll(d.sharers));
        if (caches_[q].peek(lineAddr) == LineState::Modified) {
            d.dirty = true;
            d.owner = q;
        }
    }
}

const Transition&
MemSystem::runBusTransition(ProcId p, Addr lineAddr, ProtoEvent ev,
                            MissType mt)
{
    // Address phase: the request goes out once and every cache snoops
    // it -- there is no home node and no directory consult.
    busTransaction(p);
    SnoopResult sr = snoopLine(caches_, proto_, lineAddr, p);
    const Transition& t = proto_.at(ev, sr.group);
    ensure(t.valid, "transition unreachable under this protocol");

    // --- line supply --------------------------------------------------
    if (t.supply == Supply::Owner) {
        ProcId q = sr.owner;
        ensure(q >= 0 && q != p,
               "bus owner supply without a distinct snooped owner");
        busLineTransfer(p, mt);  // owner drives the data wires
        // A sharing writeback is free on the bus: memory snarfs the
        // very transfer the owner is already driving.
        if (t.ownerNext == LineState::Invalid) {
            caches_[q].invalidate(lineAddr);
            classifier_.noteInvalidated(q, lineAddr);
            ++stats_[p].invalidations;
        } else {
            caches_[q].setState(lineAddr, t.ownerNext);
        }
    } else if (t.supply == Supply::Memory) {
        busLineTransfer(p, mt);  // memory drives the data wires
    }

    // --- the other holders (snooped: no packets, no acks) -------------
    switch (t.others) {
      case OthersOp::DowngradeExclusive:
        // The snoop's shared line tells a clean-exclusive holder it is
        // no longer alone.
        for (int q = 0; q < cfg_.nprocs; ++q)
            if (q != p &&
                caches_[q].peek(lineAddr) == LineState::Exclusive)
                caches_[q].setState(lineAddr, LineState::Shared);
        break;
      case OthersOp::Invalidate:
        // One broadcast kills every other copy; each copy actually
        // invalidated still counts (the ledger the paper's
        // invalidation-miss decomposition is built on).
        for (int q = 0; q < cfg_.nprocs; ++q) {
            if (q == p ||
                caches_[q].peek(lineAddr) == LineState::Invalid)
                continue;
            caches_[q].invalidate(lineAddr);
            classifier_.noteInvalidated(q, lineAddr);
            ++stats_[p].invalidations;
        }
        break;
      case OthersOp::Update: {
        // One word-update broadcast reaches every holder at once; it
        // occupies the data wires only when someone is listening.
        bool any = false;
        for (int q = 0; q < cfg_.nprocs; ++q) {
            if (q == p)
                continue;
            LineState sq = caches_[q].peek(lineAddr);
            if (sq == LineState::Invalid)
                continue;
            any = true;
            ++stats_[p].updates;
            if (sq == LineState::Exclusive || sq == LineState::Owned)
                caches_[q].setState(lineAddr, LineState::Shared);
        }
        if (any)
            busUpdate(p);
        break;
      }
      case OthersOp::None:
        break;
    }

    // --- requester finalization ---------------------------------------
    // The snoop's shared line reflects ground truth (no sharer vector
    // to go stale), so recount after the others-op.
    int others = 0;
    for (int q = 0; q < cfg_.nprocs; ++q)
        if (q != p && caches_[q].peek(lineAddr) != LineState::Invalid)
            ++others;
    LineState ns = others == 0 ? t.reqStateAlone : t.reqState;
    if (ev == ProtoEvent::WriteHit)
        caches_[p].setState(lineAddr, ns);
    else
        installLine(p, lineAddr, ns);
    return t;
}

const Transition&
MemSystem::runDirTransition(ProcId p, Addr lineAddr, ProtoEvent ev,
                            MissType mt)
{
    ProcId home = homeOf(lineAddr);
    packet(p, p, home);  // request to the home

    // A LineTable reference dies at the next insertion, so nothing in
    // this transaction may insert: evictVictim looks its entry up with
    // find().
    auto& d = dir_[lineAddr];
    reconcileDir(lineAddr, d);
    DirGroup g = d.empty() ? DirGroup::Uncached
                 : d.dirty ? DirGroup::Dirty
                           : DirGroup::Clean;
    const Transition& t = proto_.at(ev, g);
    ensure(t.valid, "transition unreachable under this protocol");

    // --- line supply --------------------------------------------------
    if (t.supply == Supply::Owner) {
        ProcId q = d.owner;
        ensure(q != p, "dirty owner cannot be the requesting processor");
        packet(p, home, q);         // intervention
        dataTransfer(p, q, p, mt);  // cache-to-cache reply
        if (t.sharingWriteback)
            writebackTransfer(p, q, home);  // memory picks up the line
        if (t.ownerNext == LineState::Invalid) {
            caches_[q].invalidate(lineAddr);
            classifier_.noteInvalidated(q, lineAddr);
            ++stats_[p].invalidations;
            d.dropSharer(q);
        } else {
            caches_[q].setState(lineAddr, t.ownerNext);
        }
    } else if (t.supply == Supply::Memory) {
        dataTransfer(p, home, p, mt);  // supplied by home memory
    }

    // --- the other holders --------------------------------------------
    switch (t.others) {
      case OthersOp::DowngradeExclusive:
        // A sole clean-exclusive copy degrades to Shared; the home
        // notifies the holder.
        if (d.numSharers() == 1) {
            ProcId q = static_cast<ProcId>(__builtin_ctzll(d.sharers));
            if (q != p &&
                caches_[q].peek(lineAddr) == LineState::Exclusive) {
                packet(p, home, q);
                caches_[q].setState(lineAddr, LineState::Shared);
            }
        }
        break;
      case OthersOp::Invalidate:
        for (int q = 0; q < cfg_.nprocs; ++q) {
            if (q == p || !d.isSharer(q))
                continue;
            packet(p, home, q);  // invalidation (spurious if q replaced
            packet(p, q, p);     // the line silently) + ack to requester
            if (caches_[q].peek(lineAddr) != LineState::Invalid) {
                caches_[q].invalidate(lineAddr);
                classifier_.noteInvalidated(q, lineAddr);
                ++stats_[p].invalidations;
            }
            d.dropSharer(q);
        }
        break;
      case OthersOp::Update:
        for (int q = 0; q < cfg_.nprocs; ++q) {
            if (q == p || !d.isSharer(q))
                continue;
            packet(p, home, q);  // word update (spurious if stale)
            packet(p, q, p);     // ack
            ++stats_[p].updates;
            // Copies stay valid but any exclusive-flavored holder
            // degrades: the writer is about to take ownership.
            LineState sq = caches_[q].peek(lineAddr);
            if (sq == LineState::Exclusive || sq == LineState::Owned)
                caches_[q].setState(lineAddr, LineState::Shared);
        }
        break;
      case OthersOp::None:
        break;
    }

    // --- directory + requester finalization ---------------------------
    if (t.setDirty) {
        d.dirty = true;
        d.owner = p;
    } else if (!t.keepDirty) {
        d.dirty = false;
        d.owner = -1;
    }
    bool alone = (d.sharers & ~(std::uint64_t{1} << p)) == 0;
    LineState ns = alone ? t.reqStateAlone : t.reqState;
    d.addSharer(p);
    if (ev == ProtoEvent::WriteHit)
        caches_[p].setState(lineAddr, ns);
    else
        installLine(p, lineAddr, ns);
    return t;
}

void
MemSystem::installLine(ProcId p, Addr lineAddr, LineState st)
{
    Cache::Victim v = caches_[p].fill(lineAddr, st);
    if (v.valid)
        evictVictim(p, v);
}

void
MemSystem::evictVictim(ProcId p, const Cache::Victim& v)
{
    if (cfg_.interconnect == Interconnect::Bus) {
        // A bus has no sharer vectors to keep exact, hence no
        // replacement hints: clean victims drop silently, owner-state
        // victims write back in a bus transaction of their own.
        if (stateIn(proto_.ownerStates, v.state))
            busWriteback(p);
        classifier_.noteReplaced(p, v.lineAddr);
        return;
    }
    ProcId home = homeOf(v.lineAddr);
    DirEntry* e = dir_.find(v.lineAddr);
    ensure(e != nullptr, "evicted line missing from directory");
    DirEntry& d = *e;

    if (stateIn(proto_.ownerStates, v.state)) {
        // Evicting an owner state (M, and O/Sm where the protocol has
        // them) writes the line back and cleans the entry.
        writebackTransfer(p, p, home);
        d.dirty = false;
        d.owner = -1;
        d.dropSharer(p);
    } else if (cfg_.replacementHints) {
        // Replacement hint keeps the sharer list exact.
        packet(p, p, home);
        d.dropSharer(p);
    }
    // Without hints the stale sharer bit stays set until the next
    // invalidation discovers the copy is gone.
    classifier_.noteReplaced(p, v.lineAddr);
}

void
MemSystem::packet(ProcId p, ProcId src, ProcId dst)
{
    if (src != dst)
        stats_[p].remoteOverhead += cfg_.overheadBytes;
}

void
MemSystem::dataTransfer(ProcId p, ProcId src, ProcId dst, MissType mt)
{
#ifndef NDEBUG
    ++tx_.dataTransfers;
#endif
    ++xferLines_;
    const int line = cfg_.cache.lineSize;
    if (src == dst) {
        stats_[p].localData += line;
    } else {
        switch (mt) {
          case MissType::Cold:
            stats_[p].remoteColdData += line;
            break;
          case MissType::Capacity:
            stats_[p].remoteCapacityData += line;
            break;
          default:
            stats_[p].remoteSharedData += line;
            break;
        }
        stats_[p].remoteOverhead += cfg_.overheadBytes;  // data header
    }
    if (mt == MissType::TrueSharing)
        stats_[p].trueSharedData += line;
}

void
MemSystem::writebackTransfer(ProcId p, ProcId src, ProcId home)
{
#ifndef NDEBUG
    ++tx_.writebacks;
#endif
    ++wbLines_;
    const int line = cfg_.cache.lineSize;
    if (src == home) {
        stats_[p].localData += line;
    } else {
        stats_[p].remoteWriteback += line;
        stats_[p].remoteOverhead += cfg_.overheadBytes;
    }
}

void
MemSystem::busTransaction(ProcId p)
{
    ++stats_[p].busTransactions;
    stats_[p].busAddrCycles += bus_.addrCycles();
}

void
MemSystem::busLineTransfer(ProcId p, MissType mt)
{
#ifndef NDEBUG
    ++tx_.dataTransfers;
#endif
    ++xferLines_;
    stats_[p].busDataCycles += bus_.lineCycles();
    // The paper's inherent-communication proxy is organization-
    // independent: true-sharing misses move a line either way.
    if (mt == MissType::TrueSharing)
        stats_[p].trueSharedData += cfg_.cache.lineSize;
}

void
MemSystem::busWriteback(ProcId p)
{
#ifndef NDEBUG
    ++tx_.writebacks;
#endif
    ++wbLines_;
    busTransaction(p);  // the writeback arbitrates for the bus itself
    stats_[p].busDataCycles += bus_.lineCycles();
}

void
MemSystem::busUpdate(ProcId p)
{
#ifndef NDEBUG
    ++tx_.updates;
#endif
    ++updateTxns_;
    stats_[p].busDataCycles += bus_.updateCycles();
}

void
MemSystem::resetStats()
{
    for (auto& s : stats_)
        s = MemStats{};
    // The traffic-conservation ledger covers the same window as the
    // counters it validates.
    xferLines_ = 0;
    wbLines_ = 0;
    updateTxns_ = 0;
}

MemStats
MemSystem::total() const
{
    MemStats t;
    for (const auto& s : stats_)
        t += s;
    return t;
}

LineState
MemSystem::lineState(ProcId p, Addr addr) const
{
    return caches_[p].peek(lineOf(addr));
}

const DirEntry*
MemSystem::dirEntry(Addr addr) const
{
    const DirEntry* d = dir_.find(lineOf(addr));
    return d && !d->empty() ? d : nullptr;
}

bool
MemSystem::checkCoherenceInvariants() const
{
    return CoherenceChecker(*this).checkAll() == 0;
}

} // namespace splash::sim
