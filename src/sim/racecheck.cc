#include "sim/racecheck.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "base/log.h"

namespace splash::sim {

// --------------------------------------------------------------------
// Names
// --------------------------------------------------------------------

const char*
raceGranularityName(RaceGranularity g)
{
    switch (g) {
    case RaceGranularity::Off: return "off";
    case RaceGranularity::Word: return "word";
    case RaceGranularity::Line: return "line";
    }
    return "?";
}

bool
parseRaceGranularity(const std::string& s, RaceGranularity* out)
{
    if (s == "off") {
        *out = RaceGranularity::Off;
        return true;
    }
    if (s == "word") {
        *out = RaceGranularity::Word;
        return true;
    }
    if (s == "line") {
        *out = RaceGranularity::Line;
        return true;
    }
    return false;
}

const char*
raceFaultName(RaceFault k)
{
    switch (k) {
    case RaceFault::DropLockAcquire: return "drop-lock-acquire";
    case RaceFault::DropBarrierEdge: return "drop-barrier-edge";
    case RaceFault::DropFlagWait: return "drop-flag-wait";
    case RaceFault::NumKinds: break;
    }
    return "?";
}

bool
parseRaceFault(const std::string& s, RaceFault* out)
{
    for (int i = 0; i < kNumRaceFaults; ++i) {
        RaceFault k = static_cast<RaceFault>(i);
        if (s == raceFaultName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------------
// Internal state
// --------------------------------------------------------------------

namespace {

/** An epoch packs (proc, clock) into one word; 0 means "no access".
 *  The +1 bias keeps epochs nonzero even at clock 0, though clocks
 *  start at 1 anyway (a fresh processor must race with nothing). */
inline std::uint64_t
makeEpoch(int proc, std::uint32_t clk)
{
    return (std::uint64_t(proc + 1) << 32) | clk;
}

inline int
epochProc(std::uint64_t e)
{
    return static_cast<int>(e >> 32) - 1;
}

inline std::uint32_t
epochClk(std::uint64_t e)
{
    return static_cast<std::uint32_t>(e);
}

/** Which drop kind an acquire edge of @p prim is eligible for. */
inline RaceFault
acquireFaultKind(SyncPrim prim)
{
    switch (prim) {
    case SyncPrim::Lock: return RaceFault::DropLockAcquire;
    case SyncPrim::Barrier: return RaceFault::DropBarrierEdge;
    case SyncPrim::Flag: return RaceFault::DropFlagWait;
    }
    return RaceFault::DropLockAcquire;
}

} // namespace

/** Shadow state of one granule.  `w` is the last-write epoch.  Reads
 *  are an epoch in `r` until two concurrent reads force promotion to
 *  a read vector clock (`rvc` indexes the pool); the VC collapses
 *  back at the next ordered write. */
struct RaceChecker::VarState
{
    std::uint64_t w = 0;
    std::uint64_t r = 0;
    std::int32_t rvc = -1;
    Tick wLt = 0;  ///< ltime of the last write (reporting)
    Tick rLt = 0;  ///< ltime of the epoch read (reporting)
};

/** Per-processor read clocks of a read-shared granule, with the
 *  matching logical times so reports can cite the racy read. */
struct RaceChecker::ReadVC
{
    std::vector<std::uint32_t> clk;
    std::vector<Tick> lt;
};

// --------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------

RaceChecker::RaceChecker(const RaceConfig& cfg) : cfg_(cfg)
{
    ensure(cfg_.gran != RaceGranularity::Off,
           "RaceChecker constructed with granularity off");
    if (cfg_.nprocs < 1 || cfg_.nprocs > kMaxProcs)
        fatal("race checker processor count must be in [1, " +
              std::to_string(kMaxProcs) + "] (got " +
              std::to_string(cfg_.nprocs) + ")");
    if (cfg_.gran == RaceGranularity::Word) {
        shift_ = 2;
        granBytes_ = 4;
    } else {
        if (cfg_.lineSize < 4 || !isPow2(cfg_.lineSize))
            fatal("race line size must be a power of two >= 4");
        shift_ = log2i(static_cast<std::uint64_t>(cfg_.lineSize));
        granBytes_ = cfg_.lineSize;
    }
    // C_p starts at {p -> 1}: a processor's first epoch must be
    // unknown to every other processor's clock (which starts at 0).
    procVC_.assign(std::size_t(cfg_.nprocs) * cfg_.nprocs, 0);
    for (int p = 0; p < cfg_.nprocs; ++p)
        procVC_[std::size_t(p) * cfg_.nprocs + p] = 1;
}

RaceChecker::~RaceChecker() = default;

std::vector<std::uint32_t>&
RaceChecker::objClock(std::uint32_t obj)
{
    if (obj >= objVC_.size())
        objVC_.resize(obj + 1);
    std::vector<std::uint32_t>& L = objVC_[obj];
    if (L.empty())
        L.assign(cfg_.nprocs, 0);
    return L;
}

// --------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------

void
RaceChecker::report(Addr g, const RaceAccess& prev, const AccessRec& cur)
{
    ++dynamicRaces_;
    int a = prev.proc;
    int b = cur.proc;
    if (a > b)
        std::swap(a, b);
    // Sim addresses sit just above 2^32 (SharedHeap::kSimBase), so
    // granule indices fit far below 2^52 and the packed key is unique.
    const std::uint64_t key = (std::uint64_t(g) << 12) |
                              (std::uint64_t(a) << 6) |
                              std::uint64_t(b);
    const bool fresh = pairKeys_.insert(key).second;
    racyGranules_.insert(g);
    if (fresh && reports_.size() <
                     static_cast<std::size_t>(cfg_.maxReports)) {
        RaceReport rep;
        rep.granule = g << shift_;
        rep.bytes = granBytes_;
        rep.prev = prev;
        rep.cur.proc = cur.proc;
        rep.cur.type = cur.type;
        rep.cur.ltime = cur.ltime;
        reports_.push_back(rep);
    }
}

// --------------------------------------------------------------------
// FastTrack core
// --------------------------------------------------------------------

void
RaceChecker::checkGranule(Addr g, const AccessRec& rec)
{
    VarState& v = shadow_[g];
    const int t = rec.proc;
    const int n = cfg_.nprocs;
    const std::uint32_t* C = &procVC_[std::size_t(t) * n];
    const std::uint64_t myEpoch = makeEpoch(t, C[t]);

    if (rec.type == AccessType::Read) {
        // Same-epoch read: nothing new since our last read here.
        if (v.rvc < 0 && v.r == myEpoch) {
            v.rLt = rec.ltime;
            return;
        }
        // Write-read conflict?
        if (v.w != 0) {
            const int wp = epochProc(v.w);
            if (wp != t && epochClk(v.w) > C[wp])
                report(g,
                       {static_cast<std::int16_t>(wp), AccessType::Write,
                        v.wLt},
                       rec);
        }
        if (v.rvc >= 0) {
            // Read-shared: just our slot in the read VC.
            ReadVC& rv = *readPool_[v.rvc];
            rv.clk[t] = C[t];
            rv.lt[t] = rec.ltime;
        } else if (v.r == 0 || epochProc(v.r) == t ||
                   epochClk(v.r) <= C[epochProc(v.r)]) {
            // No previous read, or it happens-before us: stay an epoch.
            v.r = myEpoch;
            v.rLt = rec.ltime;
        } else {
            // Two concurrent readers: promote to a read vector clock.
            int idx = -1;
            if (!readFree_.empty()) {
                idx = readFree_.back();
                readFree_.pop_back();
            } else {
                idx = static_cast<int>(readPool_.size());
                readPool_.push_back(std::make_unique<ReadVC>());
            }
            ReadVC& rv = *readPool_[idx];
            rv.clk.assign(n, 0);
            rv.lt.assign(n, 0);
            const int rp = epochProc(v.r);
            rv.clk[rp] = epochClk(v.r);
            rv.lt[rp] = v.rLt;
            rv.clk[t] = C[t];
            rv.lt[t] = rec.ltime;
            v.rvc = idx;
            v.r = 0;
        }
        return;
    }

    // Write.
    if (v.w == myEpoch) {
        v.wLt = rec.ltime;
        return;
    }
    if (v.w != 0) {
        const int wp = epochProc(v.w);
        if (wp != t && epochClk(v.w) > C[wp])
            report(g,
                   {static_cast<std::int16_t>(wp), AccessType::Write,
                    v.wLt},
                   rec);
    }
    if (v.rvc >= 0) {
        ReadVC& rv = *readPool_[v.rvc];
        for (int q = 0; q < n; ++q) {
            if (q != t && rv.clk[q] > C[q])
                report(g,
                       {static_cast<std::int16_t>(q), AccessType::Read,
                        rv.lt[q]},
                       rec);
        }
        readFree_.push_back(v.rvc);
        v.rvc = -1;
    } else if (v.r != 0) {
        const int rp = epochProc(v.r);
        if (rp != t && epochClk(v.r) > C[rp])
            report(g,
                   {static_cast<std::int16_t>(rp), AccessType::Read,
                    v.rLt},
                   rec);
    }
    // Update as if ordered, so one missing edge does not cascade into
    // a report per subsequent access (the pair-key dedup would absorb
    // them, but the dynamic count stays meaningful this way).
    v.w = myEpoch;
    v.wLt = rec.ltime;
    v.r = 0;
    v.rLt = 0;
}

void
RaceChecker::access(const AccessRec& r)
{
    if ((r.flags & AccessRec::kAtomic) != 0)
        return;  // annotated lock-free access; see file comment
    if (r.size <= 0)
        return;
    ensure(r.proc >= 0 && r.proc < cfg_.nprocs,
           "access from a processor outside the checker's range");
    const Addr first = r.addr >> shift_;
    const Addr last = (r.addr + Addr(r.size) - 1) >> shift_;
    for (Addr g = first; g <= last; ++g)
        checkGranule(g, r);
}

void
RaceChecker::sync(const SyncRec& r)
{
    ensure(r.proc >= 0 && r.proc < cfg_.nprocs,
           "sync edge from a processor outside the checker's range");
    const int t = r.proc;
    const int n = cfg_.nprocs;
    std::uint32_t* C = &procVC_[std::size_t(t) * n];
    std::vector<std::uint32_t>& L = objClock(r.obj);

    if (r.op == SyncOp::Release) {
        switch (r.prim) {
        case SyncPrim::Barrier: ++census_.barrierArrivals; break;
        case SyncPrim::Lock: ++census_.lockReleases; break;
        case SyncPrim::Flag: ++census_.flagSets; break;
        }
        // Join, not copy: a barrier object must accumulate *all*
        // arrivals before any departure acquires from it.
        for (int q = 0; q < n; ++q)
            L[q] = std::max(L[q], C[q]);
        ++C[t];  // own next epoch is unordered with this release
        return;
    }

    switch (r.prim) {
    case SyncPrim::Barrier: ++census_.barrierDepartures; break;
    case SyncPrim::Lock: ++census_.lockAcquires; break;
    case SyncPrim::Flag: ++census_.flagWaits; break;
    }
    const RaceFault kind = acquireFaultKind(r.prim);
    const std::uint64_t idx = edgeEver_[static_cast<int>(kind)]++;
    if (dropArmed_ && !dropFired_ && kind == dropKind_ && idx == dropAt_) {
        // Injected elision: the processor proceeds without the order
        // this edge would have given it.
        dropFired_ = true;
        droppedProc_ = t;
        return;
    }
    for (int q = 0; q < n; ++q)
        C[q] = std::max(C[q], L[q]);
}

void
RaceChecker::resetStats()
{
    // Keep clocks and shadow state: pre-window accesses still order
    // against (and can still race with) in-window ones.  Only the
    // tallies restart, mirroring MemSystem::resetStats.
    census_ = SyncCensus{};
    dynamicRaces_ = 0;
    reports_.clear();
    pairKeys_.clear();
    racyGranules_.clear();
}

// --------------------------------------------------------------------
// Injection
// --------------------------------------------------------------------

void
RaceChecker::dropEdge(RaceFault k, std::uint64_t occurrence)
{
    ensure(!dropArmed_, "RaceChecker supports one armed drop");
    dropArmed_ = true;
    dropKind_ = k;
    dropAt_ = occurrence;
}

std::uint64_t
RaceChecker::edgeCount(RaceFault k) const
{
    return edgeEver_[static_cast<int>(k)];
}

// --------------------------------------------------------------------
// Results
// --------------------------------------------------------------------

RaceOutcome
RaceChecker::outcome() const
{
    RaceOutcome o;
    o.gran = cfg_.gran;
    o.granuleBytes = granBytes_;
    o.races = pairKeys_.size();
    o.racyGranules = racyGranules_.size();
    o.dynamicRaces = dynamicRaces_;
    o.granulesTracked = shadow_.size();
    o.census = census_;
    o.reports = reports_;
    return o;
}

std::string
raceSummary(const RaceOutcome& o)
{
    char buf[256];
    std::string s;
    std::snprintf(buf, sizeof(buf),
                  "race check (%s, %d-byte granules): %" PRIu64
                  " conflict pair(s) on %" PRIu64 " granule(s), %" PRIu64
                  " dynamic conflict(s), %" PRIu64 " granules tracked\n",
                  raceGranularityName(o.gran), o.granuleBytes, o.races,
                  o.racyGranules, o.dynamicRaces, o.granulesTracked);
    s += buf;
    std::snprintf(buf, sizeof(buf),
                  "  sync edges: %" PRIu64 " barrier arrivals / %" PRIu64
                  " departures, %" PRIu64 " lock acquires / %" PRIu64
                  " releases, %" PRIu64 " flag sets / %" PRIu64
                  " waits\n",
                  o.census.barrierArrivals, o.census.barrierDepartures,
                  o.census.lockAcquires, o.census.lockReleases,
                  o.census.flagSets, o.census.flagWaits);
    s += buf;
    for (const RaceReport& r : o.reports) {
        std::snprintf(buf, sizeof(buf),
                      "  %s 0x%" PRIxPTR " [%d B]: P%d %s @t=%" PRIu64
                      " vs P%d %s @t=%" PRIu64 "\n",
                      o.gran == RaceGranularity::Line ? "line" : "word",
                      r.granule, r.bytes, r.prev.proc,
                      r.prev.type == AccessType::Write ? "write"
                                                       : "read",
                      r.prev.ltime, r.cur.proc,
                      r.cur.type == AccessType::Write ? "write"
                                                      : "read",
                      r.cur.ltime);
        s += buf;
    }
    if (o.reports.size() < o.races) {
        std::snprintf(buf, sizeof(buf),
                      "  ... %" PRIu64 " more conflict pair(s) not "
                      "shown\n",
                      o.races - o.reports.size());
        s += buf;
    }
    return s;
}

std::string
RaceChecker::summary() const
{
    return raceSummary(outcome());
}

} // namespace splash::sim
