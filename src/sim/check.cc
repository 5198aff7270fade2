#include "sim/check.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "sim/memsys.h"

namespace splash::sim {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
fmt(const char* f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

void
report(std::vector<Violation>* out, std::size_t& n, const char* rule,
       Addr line, std::string what)
{
    ++n;
    if (out)
        out->push_back({rule, std::move(what), line});
}

} // namespace

void
CoherenceChecker::checkOneLine(Addr line, const DirEntry* d,
                               std::vector<Violation>* out,
                               std::size_t& n) const
{
    const MemSystem& m = mem_;
    const MachineConfig& cfg = m.cfg_;
    const Protocol& proto = protocol(cfg.protocol);
    const bool hints = cfg.replacementHints;

    int modified = 0, valid = 0;
    ProcId mproc = -1;
    for (int p = 0; p < cfg.nprocs; ++p) {
        LineState st = m.caches_[p].peek(line);
        bool cached = st != LineState::Invalid;
        bool listed = d && d->isSharer(p);
        if (cached && !stateIn(proto.legalStates, st))
            report(out, n, "illegal-state", line,
                   fmt("proc %d holds line 0x%" PRIxPTR " in state %d, "
                       "which protocol %s does not use",
                       p, line, static_cast<int>(st), proto.name));
        // A cached copy the directory does not know about can never
        // happen: even without hints the vector is a superset.
        if (cached && !listed)
            report(out, n, "sharer-missing", line,
                   fmt("proc %d caches line 0x%" PRIxPTR
                       " but its directory sharer bit is clear",
                       p, line));
        // With hints the vector is exact, so a listed non-holder is
        // stale; without hints that state is legal until the next
        // invalidation discovers the copy is gone.
        if (hints && listed && !cached)
            report(out, n, "sharer-stale", line,
                   fmt("directory lists proc %d for line 0x%" PRIxPTR
                       " but its cache holds no copy (hints are on)",
                       p, line));
        if (cached)
            ++valid;
        if (st == LineState::Modified) {
            ++modified;
            mproc = p;
        }
        if (st == LineState::Exclusive && (!d || d->numSharers() != 1))
            report(out, n, "exclusive-shared", line,
                   fmt("proc %d holds line 0x%" PRIxPTR
                       " Exclusive but the directory lists %d sharers",
                       p, line, d ? d->numSharers() : 0));
        // Owned (MOESI's O, Dragon's Sm) is dirty-shared: it exists
        // only at the registered dirty owner, which also bounds it to
        // one copy per line.
        if (st == LineState::Owned &&
            (!d || !d->dirty || d->owner != p))
            report(out, n, "owned-orphan", line,
                   fmt("proc %d holds line 0x%" PRIxPTR " Owned but is "
                       "not the registered dirty owner",
                       p, line));
    }
    if (modified > 1)
        report(out, n, "multiple-modified", line,
               fmt("%d caches hold line 0x%" PRIxPTR " Modified",
                   modified, line));
    if (d && d->empty() && (d->dirty || d->owner != -1))
        report(out, n, "dir-entry-empty", line,
               fmt("directory entry for line 0x%" PRIxPTR
                   " has no sharers but is %s with owner %d",
                   line, d->dirty ? "dirty" : "clean", d->owner));
    if (d && d->dirty) {
        if (d->owner < 0 || d->owner >= cfg.nprocs ||
            !d->isSharer(d->owner) ||
            !stateIn(proto.ownerStates,
                     m.caches_[d->owner].peek(line)))
            report(out, n, "dirty-owner", line,
                   fmt("line 0x%" PRIxPTR " is dirty with owner %d, "
                       "who does not hold it in an owner state",
                       line, d->owner));
    } else if (modified == 1) {
        // Deferred silent E->M promotion: legal only under a protocol
        // with clean-exclusive, and only while the holder is the sole
        // sharer (reconcileDir repairs the entry at the next directory
        // consult).  Anything wider is corruption.
        if (!proto.hasExclusive || !d || d->numSharers() != 1 ||
            !d->isSharer(mproc))
            report(out, n, "lazy-dirty-bound", line,
                   fmt("proc %d holds line 0x%" PRIxPTR " Modified "
                       "under a clean entry that does not list it as "
                       "sole sharer",
                       mproc, line));
    }
    if (d && (hints ? valid != d->numSharers() : valid > d->numSharers()))
        report(out, n, "resident-count", line,
               fmt("line 0x%" PRIxPTR ": %d cached copies vs %d "
                   "directory sharers",
                   line, valid, d->numSharers()));
}

void
CoherenceChecker::checkOneLineBus(Addr line, std::vector<Violation>* out,
                                  std::size_t& n) const
{
    const MemSystem& m = mem_;
    const Protocol& proto = protocol(m.cfg_.protocol);

    int valid = 0, owners = 0;
    ProcId mproc = -1, eproc = -1;
    for (int p = 0; p < m.cfg_.nprocs; ++p) {
        LineState st = m.caches_[p].peek(line);
        if (st == LineState::Invalid)
            continue;
        ++valid;
        if (!stateIn(proto.legalStates, st))
            report(out, n, "bus-illegal-state", line,
                   fmt("proc %d holds line 0x%" PRIxPTR " in state %d, "
                       "which protocol %s does not use",
                       p, line, static_cast<int>(st), proto.name));
        if (stateIn(proto.ownerStates, st))
            ++owners;
        if (st == LineState::Modified)
            mproc = p;
        if (st == LineState::Exclusive)
            eproc = p;
    }
    if (owners > 1)
        report(out, n, "bus-multiple-owner", line,
               fmt("%d caches would answer a snoop of line 0x%" PRIxPTR
                   " as owner",
                   owners, line));
    // Snoop-response consistency: an exclusive-flavored copy and
    // another valid copy cannot both be telling the truth.
    if (mproc >= 0 && valid > 1)
        report(out, n, "bus-modified-shared", line,
               fmt("proc %d holds line 0x%" PRIxPTR " Modified while %d "
                   "other copies survive",
                   mproc, line, valid - 1));
    if (eproc >= 0 && valid > 1)
        report(out, n, "bus-exclusive-shared", line,
               fmt("proc %d holds line 0x%" PRIxPTR " Exclusive while %d "
                   "other copies survive",
                   eproc, line, valid - 1));
}

std::size_t
CoherenceChecker::checkLine(Addr lineAddr,
                            std::vector<Violation>* out) const
{
    std::size_t n = 0;
    if (mem_.cfg_.interconnect == Interconnect::Bus) {
        checkOneLineBus(lineAddr, out, n);
        return n;
    }
    checkOneLine(lineAddr, mem_.dir_.find(lineAddr), out, n);
    return n;
}

std::size_t
CoherenceChecker::checkTraffic(std::vector<Violation>* out) const
{
    std::size_t n = 0;
    std::uint64_t bytes = 0;
    for (const MemStats& s : mem_.stats_)
        bytes += s.remoteSharedData + s.remoteColdData +
                 s.remoteCapacityData + s.remoteWriteback + s.localData;
    if (mem_.cfg_.interconnect == Interconnect::Bus) {
        // Occupancy replaces the byte decomposition: every data-phase
        // cycle comes from exactly one line movement or word-update
        // broadcast, and the directory byte counters never move.
        std::uint64_t cycles = 0;
        for (const MemStats& s : mem_.stats_)
            cycles += s.busDataCycles;
        std::uint64_t expect =
            std::uint64_t(mem_.bus_.lineCycles()) *
                (mem_.xferLines_ + mem_.wbLines_) +
            std::uint64_t(mem_.bus_.updateCycles()) * mem_.updateTxns_;
        if (cycles != expect || bytes != 0)
            report(out, n, "bus-traffic-conservation", 0,
                   fmt("%" PRIu64 " data-phase cycles accounted vs "
                       "%" PRIu64 " expected (%" PRIu64 " transfers + "
                       "%" PRIu64 " writebacks + %" PRIu64
                       " update broadcasts), %" PRIu64
                       " directory data bytes (want 0)",
                       cycles, expect, mem_.xferLines_, mem_.wbLines_,
                       mem_.updateTxns_, bytes));
        return n;
    }
    std::uint64_t moved = std::uint64_t(mem_.cfg_.cache.lineSize) *
                          (mem_.xferLines_ + mem_.wbLines_);
    if (bytes != moved)
        report(out, n, "traffic-conservation", 0,
               fmt("%" PRIu64 " data bytes accounted vs %" PRIu64
                   " moved (%" PRIu64 " transfers + %" PRIu64
                   " writebacks of %d-byte lines)",
                   bytes, moved, mem_.xferLines_, mem_.wbLines_,
                   mem_.cfg_.cache.lineSize));
    return n;
}

std::size_t
CoherenceChecker::checkAll(std::vector<Violation>* out) const
{
    std::size_t n = 0;
    if (mem_.cfg_.interconnect == Interconnect::Bus) {
        // No directory to enumerate through: walk the tag arrays and
        // validate each distinct resident line once, in sorted order
        // so violation reports are deterministic.
        std::vector<Addr> lines;
        for (const Cache& c : mem_.caches_)
            c.forEachResident(
                [&](Addr line, LineState) { lines.push_back(line); });
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()),
                    lines.end());
        for (Addr line : lines)
            checkOneLineBus(line, out, n);
        n += checkTraffic(out);
        return n;
    }
    // Every entry, those with no sharers included (uncached lines).
    std::uint64_t reachable = 0;
    mem_.dir_.forEach([&](Addr line, const DirEntry& d) {
        checkOneLine(line, &d, out, n);
        for (int p = 0; p < mem_.cfg_.nprocs; ++p)
            if (mem_.caches_[p].peek(line) != LineState::Invalid)
                ++reachable;
    });
    // Catch cached lines with no directory entry at all: every
    // resident line must be visible through some entry above.
    std::uint64_t resident = 0;
    for (const Cache& c : mem_.caches_)
        resident += c.residentLines();
    if (resident != reachable)
        report(out, n, "sharer-missing", 0,
               fmt("%" PRIu64 " lines resident in caches but only "
                   "%" PRIu64 " reachable through directory entries",
                   resident, reachable));
    n += checkTraffic(out);
    return n;
}

std::string
formatViolations(const std::vector<Violation>& v)
{
    std::string s;
    for (const Violation& x : v) {
        s += "  [";
        s += x.rule;
        s += "] ";
        s += x.what;
        s += '\n';
    }
    return s;
}

} // namespace splash::sim
