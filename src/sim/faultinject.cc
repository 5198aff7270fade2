#include "sim/faultinject.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

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

struct Target
{
    Addr line;
    ProcId proc;
};

void
sortTargets(std::vector<Target>& v)
{
    std::sort(v.begin(), v.end(), [](const Target& a, const Target& b) {
        return a.line != b.line ? a.line < b.line : a.proc < b.proc;
    });
}

/** Collect (line, proc) pairs satisfying @p pred over every directory
 *  entry with sharers, in sorted order: the table's slot order depends
 *  on its growth history, not on the line.  Entries with no sharers
 *  stand for uncached lines and offer no target. */
template <typename Pred>
std::vector<Target>
candidates(const LineTable<DirEntry>& dir, int nprocs, Pred pred)
{
    std::vector<Target> v;
    dir.forEach([&](Addr line, const DirEntry& d) {
        if (d.empty())
            return;
        for (ProcId p = 0; p < nprocs; ++p)
            if (pred(line, d, p))
                v.push_back({line, p});
    });
    sortTargets(v);
    return v;
}

/** Bus-mode candidate enumeration: there is no directory, so walk the
 *  tag arrays.  @p pred sees (line, state, proc, copies-of-line). */
template <typename Pred>
std::vector<Target>
busCandidates(const std::vector<Cache>& caches, Pred pred)
{
    std::unordered_map<Addr, int> copies;
    for (const Cache& c : caches)
        c.forEachResident(
            [&](Addr line, LineState) { ++copies[line]; });
    std::vector<Target> v;
    for (ProcId p = 0; p < static_cast<ProcId>(caches.size()); ++p)
        caches[p].forEachResident([&](Addr line, LineState st) {
            if (pred(line, st, p, copies[line]))
                v.push_back({line, p});
        });
    sortTargets(v);
    return v;
}

} // namespace

const char*
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::DroppedInval:   return "dropped-inval";
      case FaultKind::StaleSharer:    return "stale-sharer";
      case FaultKind::DoubleModified: return "double-modified";
      case FaultKind::LostHint:       return "lost-hint";
      case FaultKind::DirtyDesync:    return "dirty-desync";
      case FaultKind::TrafficSkew:    return "traffic-skew";
      case FaultKind::IllegalState:   return "illegal-state";
      case FaultKind::SnoopMissedInval: return "snoop-missed-inval";
      case FaultKind::DoubleOwner:      return "double-owner";
      case FaultKind::GhostExclusive:   return "ghost-exclusive";
      case FaultKind::BusTrafficSkew:   return "bus-traffic-skew";
      default:                        return "?";
    }
}

bool
faultKindIsBus(FaultKind k)
{
    return k >= FaultKind::SnoopMissedInval && k < FaultKind::NumKinds;
}

bool
parseFaultKind(const std::string& s, FaultKind* out)
{
    for (int i = 0; i < kNumFaultKinds; ++i) {
        auto k = static_cast<FaultKind>(i);
        if (s == faultKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

std::string
FaultInjector::inject(FaultKind k, std::uint64_t seed)
{
    auto& dir = mem_.dir_;
    auto& caches = mem_.caches_;
    const int nprocs = mem_.cfg_.nprocs;
    const bool hints = mem_.cfg_.replacementHints;
    const Protocol& proto = protocol(mem_.cfg_.protocol);
    // Each kind corrupts one organization's state: directory kinds are
    // meaningless on a bus (no directory exists) and vice versa.
    if (faultKindIsBus(k) !=
        (mem_.cfg_.interconnect == Interconnect::Bus))
        return "";
    // A valid copy that carries no ownership (S, E, Dragon's Sc):
    // dropping or mislabeling one must trip the sharer rules, not the
    // dirty-owner rule.
    auto cleanValid = [&](LineState st) {
        return st != LineState::Invalid &&
               !stateIn(proto.ownerStates, st);
    };

    switch (k) {
      case FaultKind::DroppedInval: {
          // Keep the cached copy, lose the directory's knowledge of it.
          auto v = candidates(dir, nprocs,
                              [&](Addr line, const DirEntry& d, ProcId p) {
                                  return d.isSharer(p) &&
                                         caches[p].peek(line) !=
                                             LineState::Invalid;
                              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          dir[t.line].dropSharer(t.proc);
          return fmt("dropped-inval: cleared sharer bit of proc %d for "
                     "line 0x%" PRIxPTR " while its copy stays cached",
                     t.proc, t.line);
      }

      case FaultKind::StaleSharer: {
          // Only a fault when hints keep the vector exact.
          if (!hints)
              return "";
          auto v = candidates(dir, nprocs,
                              [&](Addr line, const DirEntry& d, ProcId p) {
                                  return !d.isSharer(p) &&
                                         caches[p].peek(line) ==
                                             LineState::Invalid;
                              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          dir[t.line].addSharer(t.proc);
          return fmt("stale-sharer: set sharer bit of proc %d for line "
                     "0x%" PRIxPTR " though it holds no copy",
                     t.proc, t.line);
      }

      case FaultKind::DoubleModified: {
          // Grant Modified to a second holder of a line with >= 2
          // copies; targets are lines, proc picks the second holder.
          auto v = candidates(dir, nprocs,
                              [&](Addr line, const DirEntry& d, ProcId p) {
                                  (void)line;
                                  return p == 0 && d.numSharers() >= 2;
                              });
          if (v.empty())
              return "";
          Addr line = v[seed % v.size()].line;
          ProcId first = -1, second = -1;
          for (ProcId p = 0; p < nprocs && second < 0; ++p) {
              if (caches[p].peek(line) == LineState::Invalid)
                  continue;
              (first < 0 ? first : second) = p;
          }
          if (second < 0)
              return "";
          caches[first].setState(line, LineState::Modified);
          caches[second].setState(line, LineState::Modified);
          return fmt("double-modified: procs %d and %d both hold line "
                     "0x%" PRIxPTR " Modified",
                     first, second, line);
      }

      case FaultKind::LostHint: {
          // The cache replaced the line but the hint never arrived.
          if (!hints)
              return "";
          auto v = candidates(dir, nprocs,
                              [&](Addr line, const DirEntry& d, ProcId p) {
                                  return d.isSharer(p) &&
                                         cleanValid(caches[p].peek(line));
                              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          caches[t.proc].invalidate(t.line);
          return fmt("lost-hint: dropped proc %d's copy of line "
                     "0x%" PRIxPTR " without clearing its sharer bit",
                     t.proc, t.line);
      }

      case FaultKind::DirtyDesync: {
          // Mark a clean entry dirty, owned by a holder in none of the
          // protocol's owner states -- a reconciliation gone wrong.
          auto v = candidates(dir, nprocs,
                              [&](Addr line, const DirEntry& d, ProcId p) {
                                  return !d.dirty && d.isSharer(p) &&
                                         cleanValid(caches[p].peek(line));
                              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          DirEntry& d = dir[t.line];
          d.dirty = true;
          d.owner = t.proc;
          return fmt("dirty-desync: marked line 0x%" PRIxPTR " dirty "
                     "with owner %d whose copy is in no owner state",
                     t.line, t.proc);
      }

      case FaultKind::TrafficSkew: {
          ProcId p = static_cast<ProcId>(seed % std::uint64_t(nprocs));
          mem_.stats_[p].localData += mem_.cfg_.cache.lineSize;
          return fmt("traffic-skew: credited proc %d with %d local data "
                     "bytes that were never transferred",
                     p, mem_.cfg_.cache.lineSize);
      }

      case FaultKind::IllegalState: {
          // Flip a cached copy to the lowest valid state the protocol
          // does not use; ineligible when the legal set is the full
          // alphabet (MOESI, Dragon).
          LineState illegal = LineState::Invalid;
          for (int s = 1; s < kNumLineStates; ++s) {
              if (!stateIn(proto.legalStates, static_cast<LineState>(s))) {
                  illegal = static_cast<LineState>(s);
                  break;
              }
          }
          if (illegal == LineState::Invalid)
              return "";
          auto v = candidates(dir, nprocs,
                              [&](Addr line, const DirEntry& d, ProcId p) {
                                  (void)d;
                                  return caches[p].peek(line) !=
                                         LineState::Invalid;
                              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          caches[t.proc].setState(t.line, illegal);
          return fmt("illegal-state: set proc %d's copy of line "
                     "0x%" PRIxPTR " to state %d, unused by protocol %s",
                     t.proc, t.line, static_cast<int>(illegal),
                     proto.name);
      }

      case FaultKind::SnoopMissedInval: {
          // A write's invalidating broadcast went unobserved: promote
          // one holder of a multi-copy line to Modified while the
          // other copies survive.
          auto v = busCandidates(
              caches, [&](Addr, LineState, ProcId, int copies) {
                  return copies >= 2;
              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          caches[t.proc].setState(t.line, LineState::Modified);
          return fmt("snoop-missed-inval: proc %d holds line "
                     "0x%" PRIxPTR " Modified but another cache missed "
                     "the invalidating broadcast",
                     t.proc, t.line);
      }

      case FaultKind::DoubleOwner: {
          // Broken arbitration of an ownership handoff: two holders of
          // the same line both end up in an owner state.  Prefer Owned
          // where the protocol has it (a legal dirty-shared state, so
          // only the single-owner rule can catch the fault).
          LineState os = stateIn(proto.legalStates, LineState::Owned)
                             ? LineState::Owned
                             : LineState::Modified;
          auto v = busCandidates(
              caches, [&](Addr, LineState, ProcId, int copies) {
                  return copies >= 2;
              });
          if (v.empty())
              return "";
          Addr line = v[seed % v.size()].line;
          ProcId first = -1, second = -1;
          for (ProcId p = 0; p < nprocs && second < 0; ++p) {
              if (caches[p].peek(line) == LineState::Invalid)
                  continue;
              (first < 0 ? first : second) = p;
          }
          if (second < 0)
              return "";
          caches[first].setState(line, os);
          caches[second].setState(line, os);
          return fmt("double-owner: procs %d and %d would both answer "
                     "a snoop of line 0x%" PRIxPTR " as owner",
                     first, second, line);
      }

      case FaultKind::GhostExclusive: {
          // Clean-exclusive granted although the snoop's shared line
          // was asserted; needs a protocol with an E state.
          if (!proto.hasExclusive)
              return "";
          auto v = busCandidates(
              caches, [&](Addr, LineState, ProcId, int copies) {
                  return copies >= 2;
              });
          if (v.empty())
              return "";
          Target t = v[seed % v.size()];
          caches[t.proc].setState(t.line, LineState::Exclusive);
          return fmt("ghost-exclusive: proc %d holds line 0x%" PRIxPTR
                     " Exclusive though other copies exist",
                     t.proc, t.line);
      }

      case FaultKind::BusTrafficSkew: {
          ProcId p = static_cast<ProcId>(seed % std::uint64_t(nprocs));
          std::uint64_t cycles =
              std::uint64_t(mem_.bus_.lineCycles());
          mem_.stats_[p].busDataCycles += cycles;
          return fmt("bus-traffic-skew: credited proc %d with %" PRIu64
                     " data-phase cycles never driven on the wires",
                     p, cycles);
      }

      default:
          return "";
    }
}

} // namespace splash::sim
