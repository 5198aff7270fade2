#include "sim/sweep.h"

#include <algorithm>

#include "base/log.h"

namespace splash::sim {

namespace {
/** Initial and minimum Fenwick-tree capacity.  Compaction resizes the
 *  tree to ~4x the live line count, so the hot random-access array
 *  stays cache resident instead of spanning a fixed 2^21 slots. */
constexpr std::uint64_t kTimeCapMin = 1u << 16;
} // namespace

CacheSweep::CacheSweep(const SweepConfig& cfg, int shard, int shards)
    : cfg_(cfg), lineShift_(log2i(cfg.lineSize))
{
    if (!isPow2(cfg_.lineSize))
        fatal("sweep line size must be a power of two");
    ensure(0 <= shard && shard < shards, "sweep shard out of range");
    first_ = shard * cfg_.nprocs / shards;
    nmine_ = static_cast<std::size_t>((shard + 1) * cfg_.nprocs / shards -
                                      first_);
    arrays_.resize(nmine_);
    accesses_.assign(nmine_, 0);
    for (auto s : cfg_.sizes)
        if (!isPow2(s) || s < static_cast<std::uint64_t>(cfg_.lineSize))
            fatal("sweep cache size must be a power of two >= line size");
    for (auto& cfgs : arrays_) {
        for (auto size : cfg_.sizes) {
            for (int assoc : cfg_.assocs) {
                if (assoc == kFullyAssoc)
                    continue;
                TagArray ta;
                std::uint64_t lines = size >> lineShift_;
                ta.ways = std::min<std::uint64_t>(assoc, lines);
                ta.setMask = lines / ta.ways - 1;
                ta.entries.resize(lines);
                cfgs.push_back(std::move(ta));
            }
        }
    }
    if (std::ranges::count(cfg_.assocs, kFullyAssoc)) {
        stacks_.resize(nmine_);
        profile_ = ReuseDistProfile(cfg_.nprocs, cfg_.lineSize);
    }
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

    if (!stacks_.empty())
        profile_.record(
            p, stacks_[i].touch(lineAddr, old_ver, new_ver, is_write));
}

void
CacheSweep::resetStats()
{
    std::fill(accesses_.begin(), accesses_.end(), 0);
    for (auto& cfgs : arrays_)
        for (auto& ta : cfgs)
            ta.misses = 0;
    profile_.clearCounts();
}

std::uint64_t
CacheSweep::accesses() const
{
    std::uint64_t t = 0;
    for (auto a : accesses_)
        t += a;
    return t;
}

SweepResult
CacheSweep::result() const
{
    SweepResult r;
    r.cfg_ = cfg_;
    r.accesses_ = accesses();
    std::size_t col = 0;  // the next finite column's tag arrays
    for (std::uint64_t size : cfg_.sizes) {
        for (int assoc : cfg_.assocs) {
            std::uint64_t m = 0;
            if (assoc == kFullyAssoc) {
                m = profile_.faMisses(size);
            } else {
                for (const auto& cfgs : arrays_)
                    m += cfgs[col].misses;
                ++col;
            }
            r.misses_.push_back(m);
        }
    }
    return r;
}

std::uint64_t
SweepResult::misses(std::uint64_t size, int assoc) const
{
    const std::size_t cols = cfg_.assocs.size();
    for (std::size_t s = 0; s < cfg_.sizes.size() && !misses_.empty(); ++s)
        for (std::size_t a = 0; a < cols; ++a)
            if (cfg_.sizes[s] == size && cfg_.assocs[a] == assoc)
                return misses_[s * cols + a];
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
