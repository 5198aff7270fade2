#include "sim/sweep.h"

#include <algorithm>

#include "base/log.h"
#include "sim/reusedist.h"

namespace splash::sim {

namespace {
/** Initial and minimum Fenwick-tree capacity.  Compaction resizes the
 *  tree to ~4x the live line count, so the hot random-access array
 *  stays cache resident instead of spanning a fixed 2^21 slots. */
constexpr std::uint64_t kTimeCapMin = 1u << 16;
} // namespace

CacheSweep::CacheSweep(const SweepConfig& cfg, ReuseDistProfile* profile,
                       int shard, int shards)
    : cfg_(cfg), lineShift_(log2i(cfg.lineSize)), profile_(profile)
{
    if (!isPow2(cfg_.lineSize))
        fatal("sweep line size must be a power of two");
    ensure(0 <= shard && shard < shards, "sweep shard out of range");
    first_ = shard * cfg_.nprocs / shards;
    nmine_ = static_cast<std::size_t>((shard + 1) * cfg_.nprocs / shards -
                                      first_);
    arrays_.resize(nmine_);
    stacks_.resize(nmine_);
    accesses_.assign(nmine_, 0);
    std::uint64_t max_lines = 0;
    for (auto s : cfg_.sizes) {
        if (!isPow2(s) || s < static_cast<std::uint64_t>(cfg_.lineSize))
            fatal("sweep cache size must be a power of two >= line size");
        max_lines = std::max(max_lines, s >> lineShift_);
    }
    for (std::size_t i = 0; i < nmine_; ++i) {
        auto& cfgs = arrays_[i];
        for (auto size : cfg_.sizes) {
            for (int assoc : cfg_.assocs) {
                TagArray ta;
                std::uint64_t lines = size >> lineShift_;
                ta.ways = std::min<std::uint64_t>(assoc, lines);
                ta.setMask = lines / ta.ways - 1;
                ta.entries.resize(lines);
                cfgs.push_back(std::move(ta));
            }
        }
        stacks_[i].init(max_lines);
    }
    if (profile_)
        *profile_ = ReuseDistProfile(cfg_.nprocs, cfg_.lineSize);
}

StackDistance::StackDistance()
{
    timeCap_ = kTimeCapMin;
    bit_.assign(timeCap_ + 1, 0);
}

void
StackDistance::bitAdd(std::uint64_t i, int delta)
{
    for (; i <= timeCap_; i += i & (~i + 1))
        bit_[i] += delta;
}

std::uint64_t
StackDistance::bitSum(std::uint64_t i) const
{
    std::uint64_t s = 0;
    for (; i > 0; i -= i & (~i + 1))
        s += bit_[i];
    return s;
}

void
StackDistance::compact()
{
    // Renumber live lines 1..k in lastTime order and rebuild the tree,
    // sized to ~4x the live set so timestamps have headroom before the
    // next compaction.  Relative order is preserved, so every stack
    // distance computed afterwards is unchanged.
    std::vector<std::pair<std::uint64_t, LineInfo*>> live;
    live.reserve(lines_.size());
    lines_.forEach([&](Addr, LineInfo& info) {
        live.emplace_back(info.lastTime, &info);
    });
    std::sort(live.begin(), live.end());
    std::uint64_t want = kTimeCapMin;
    while (want < 4 * (live.size() + 1))
        want <<= 1;
    timeCap_ = want;
    bit_.assign(timeCap_ + 1, 0);
    std::uint64_t t = 0;
    for (auto& [time, info] : live) {
        (void)time;
        info->lastTime = ++t;
        bitAdd(t, 1);
    }
    now_ = t;
}

std::uint64_t
StackDistance::touch(Addr line, std::uint64_t oldVer,
                     std::uint64_t newVer, bool isWrite)
{
    if (now_ + 1 > timeCap_)
        compact();
    ++now_;
    LineInfo& info = lines_[line];
    if (info.lastTime == 0) {
        bitAdd(now_, 1);
        info = {now_, isWrite ? newVer : oldVer};
        return kCold;
    }
    std::uint64_t out;
    if (info.version != oldVer) {
        // Coherence-invalidated at every capacity.
        out = kStale;
    } else {
        // Distance d lines were touched in between; the line hits at
        // capacity >= d + 1 lines.
        out = bitSum(now_ - 1) - bitSum(info.lastTime);
    }
    bitAdd(info.lastTime, -1);
    bitAdd(now_, 1);
    info.lastTime = now_;
    info.version = isWrite ? newVer : oldVer;
    return out;
}

void
CacheSweep::StackProfiler::init(std::uint64_t max_lines)
{
    maxLines = max_lines;
    hist.assign(max_lines + 2, 0);
}

std::uint64_t
CacheSweep::StackProfiler::touch(Addr line, std::uint64_t oldVer,
                                 std::uint64_t newVer, bool isWrite)
{
    std::uint64_t d = core.touch(line, oldVer, newVer, isWrite);
    if (d == StackDistance::kCold || d == StackDistance::kStale)
        ++coldOrStale;
    else
        ++hist[std::min(d + 1, maxLines + 1)];
    return d;
}

void
VersionCoherence::advance(Addr lineAddr, ProcId p, bool isWrite,
                          std::uint64_t* oldVer, std::uint64_t* newVer)
{
    Line& c = map_[lineAddr];
    *oldVer = c.version;
    if (isWrite) {
        if (c.lastWriter != p || c.readSince) {
            ++c.version;
            c.lastWriter = p;
            c.readSince = false;
        }
    } else if (c.lastWriter != p) {
        c.readSince = true;
    }
    *newVer = c.version;
}

void
CacheSweep::access(ProcId p, Addr addr, int size, AccessType type)
{
    Addr first = alignDown(addr, cfg_.lineSize);
    Addr last = alignDown(addr + size - 1, cfg_.lineSize);
    for (Addr line = first; line <= last; line += cfg_.lineSize)
        accessLine(p, line, type);
}

void
CacheSweep::accessLine(ProcId p, Addr lineAddr, AccessType type)
{
    bool is_write = type == AccessType::Write;
    std::uint64_t old_ver, new_ver;
    // Every reference advances coherence, another shard's too: its
    // invalidations decide what this shard's processors still hold.
    coh_.advance(lineAddr, p, is_write, &old_ver, &new_ver);
    const std::size_t i = static_cast<std::size_t>(p - first_);
    if (i >= nmine_)
        return;
    ++accesses_[i];

    const std::uint64_t line_id = lineAddr >> lineShift_;
    const TagEntry e{lineAddr, is_write ? new_ver : old_ver};
    for (TagArray& ta : arrays_[i]) {
        TagEntry* set = &ta.entries[(line_id & ta.setMask) * ta.ways];
        const int ways = ta.ways;
        int w = 0;
        while (w < ways && set[w].tag != lineAddr)
            ++w;
        if (w == ways || set[w].version != old_ver) {
            ++ta.misses;
            if (w == ways) {
                // Victim: the first free way -- never filled, or holding
                // a copy coherence has invalidated, as the
                // eager-invalidation MemSystem would have -- else the
                // LRU (last) way.  A stale copy never hits again, so
                // which free way takes the fill cannot change any later
                // hit or miss.
                w = 0;
                while (w < ways - 1 && set[w].tag != kNoTag &&
                       !coh_.stale(set[w].tag, set[w].version))
                    ++w;
            }
        }
        // Hit or fill: move the way to the front.
        for (; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = e;
    }

    const std::uint64_t d =
        stacks_[i].touch(lineAddr, old_ver, new_ver, is_write);
    if (profile_)
        profile_->record(p, d);
}

void
CacheSweep::resetStats()
{
    std::fill(accesses_.begin(), accesses_.end(), 0);
    for (auto& cfgs : arrays_)
        for (auto& ta : cfgs)
            ta.misses = 0;
    for (auto& st : stacks_) {
        std::fill(st.hist.begin(), st.hist.end(), 0);
        st.coldOrStale = 0;
    }
    if (profile_)
        profile_->clearCounts();
}

std::uint64_t
CacheSweep::accesses() const
{
    std::uint64_t t = 0;
    for (auto a : accesses_)
        t += a;
    return t;
}

std::uint64_t
CacheSweep::misses(std::uint64_t size, int assoc) const
{
    if (assoc == 0) {
        // Fully associative: from the stack-distance histograms.
        std::uint64_t cap_lines = size >> lineShift_;
        std::uint64_t m = 0;
        for (const auto& st : stacks_) {
            m += st.coldOrStale;
            for (std::uint64_t d = cap_lines + 1; d < st.hist.size(); ++d)
                m += st.hist[d];
        }
        return m;
    }
    // Finite associativity: locate the config index.
    int size_idx = -1, assoc_idx = -1;
    for (size_t i = 0; i < cfg_.sizes.size(); ++i)
        if (cfg_.sizes[i] == size)
            size_idx = static_cast<int>(i);
    for (size_t i = 0; i < cfg_.assocs.size(); ++i)
        if (cfg_.assocs[i] == assoc)
            assoc_idx = static_cast<int>(i);
    if (size_idx < 0 || assoc_idx < 0)
        fatal("requested sweep operating point was not simulated");
    int idx = size_idx * static_cast<int>(cfg_.assocs.size()) + assoc_idx;
    std::uint64_t m = 0;
    for (const auto& cfgs : arrays_)
        m += cfgs[idx].misses;
    return m;
}

double
CacheSweep::missRate(std::uint64_t size, int assoc) const
{
    std::uint64_t a = accesses();
    return a ? double(misses(size, assoc)) / double(a) : 0.0;
}

SweepResult
CacheSweep::result() const
{
    SweepResult r;
    r.cfg_ = cfg_;
    r.accesses_ = accesses();
    for (std::uint64_t size : cfg_.sizes) {
        for (int assoc : cfg_.assocs)
            r.misses_.push_back(misses(size, assoc));
        r.misses_.push_back(misses(size, kFullyAssoc));
    }
    return r;
}

std::uint64_t
SweepResult::misses(std::uint64_t size, int assoc) const
{
    const std::size_t cols = cfg_.assocs.size() + 1;
    for (std::size_t s = 0; s < cfg_.sizes.size(); ++s) {
        if (cfg_.sizes[s] != size)
            continue;
        if (assoc == kFullyAssoc)
            return misses_[s * cols + cols - 1];
        for (std::size_t a = 0; a < cfg_.assocs.size(); ++a)
            if (cfg_.assocs[a] == assoc)
                return misses_[s * cols + a];
    }
    fatal("requested sweep operating point was not simulated");
}

double
SweepResult::missRate(std::uint64_t size, int assoc) const
{
    const std::uint64_t m = misses(size, assoc);
    return accesses_ ? double(m) / double(accesses_) : 0.0;
}

SweepResult&
SweepResult::operator+=(const SweepResult& o)
{
    if (misses_.empty())
        return *this = o;
    ensure(misses_.size() == o.misses_.size(),
           "summed sweep results cover different grids");
    accesses_ += o.accesses_;
    for (std::size_t i = 0; i < misses_.size(); ++i)
        misses_[i] += o.misses_[i];
    return *this;
}

} // namespace splash::sim
