#include "sim/sweep.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/log.h"

namespace splash::sim {

namespace {
/** Initial and minimum Fenwick-tree capacity.  Compaction resizes the
 *  tree to ~4x the live line count, so the hot random-access array
 *  stays cache resident instead of spanning a fixed 2^21 slots. */
constexpr std::uint64_t kTimeCapMin = 1u << 16;
} // namespace

CacheSweep::CacheSweep(const SweepConfig& cfg, int shard, int shards)
    : cfg_(cfg)
{
    if (cfg_.nprocs < 1 || cfg_.nprocs > kMaxProcs)
        fatal("sweep processor count must be in [1, " +
              std::to_string(kMaxProcs) + "]: coherence tracks holders " +
              "in a " + std::to_string(kMaxProcs) + "-bit mask (got " +
              std::to_string(cfg_.nprocs) + ")");
    if (!isPow2(cfg_.lineSize))
        fatal("sweep line size must be a power of two");
    // A way keeps its level in the line address's low three bits.
    if (cfg_.lineSize < 8)
        fatal("line size must be in [8, size]");
    lineShift_ = log2i(cfg_.lineSize);
    ensure(0 <= shard && shard < shards, "sweep shard out of range");
    first_ = shard * cfg_.nprocs / shards;
    nmine_ = static_cast<std::size_t>((shard + 1) * cfg_.nprocs / shards -
                                      first_);
    mine_ = nmine_ == 0 ? 0
                        : (~std::uint64_t{0} >> (64 - nmine_)) << first_;
    accesses_.assign(nmine_, 0);
    for (auto s : cfg_.sizes)
        if (!isPow2(s) || s < static_cast<std::uint64_t>(cfg_.lineSize))
            fatal("sweep cache size must be a power of two >= line size");
    // Seven way counts at most, so a level fits a way's low three bits.
    for (int assoc : cfg_.assocs)
        if (assoc != kFullyAssoc &&
            (assoc < 1 || assoc > 64 || !isPow2(assoc)))
            fatal("sweep way counts must be powers of two in [1, 64]");

    // Each finite column is a (set count, way count) pair; columns that
    // share a set count share a set array, one level per way count.
    std::vector<std::pair<std::uint64_t, int>> points;
    for (auto size : cfg_.sizes) {
        for (int assoc : cfg_.assocs) {
            if (assoc == kFullyAssoc)
                continue;
            const std::uint64_t lines = size >> lineShift_;
            const int ways =
                static_cast<int>(std::min<std::uint64_t>(assoc, lines));
            points.emplace_back(lines / ways, ways);
        }
    }
    std::vector<std::pair<std::uint64_t, int>> distinct = points;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    int level = 0;
    for (auto [sets, ways] : distinct) {
        if (arrays_.empty() || arrays_.back().setMask != sets - 1) {
            arrays_.emplace_back();
            arrays_.back().setMask = sets - 1;
            level = 0;
        }
        // Way counts arrive in increasing order: a new deepest level.
        arrays_.back().wayCount[++level] = ways;
        arrays_.back().depth = ways;
    }
    for (SetArray& a : arrays_) {
        a.offset = procWords_;
        procWords_ += (a.setMask + 1) * a.depth;
    }
    for (auto [sets, ways] : points) {
        Column c;
        while (arrays_[c.array].setMask != sets - 1)
            ++c.array;
        const auto& counts = arrays_[c.array].wayCount;
        c.level = static_cast<int>(
            std::find(counts.begin() + 1, counts.end(), ways) -
            counts.begin());
        columns_.push_back(c);
    }
    ways_.assign(nmine_ * procWords_, 0);
    hits_.assign(nmine_ * arrays_.size() * kLevelSlots, 0);
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

std::uint64_t
VersionCoherence::advance(Addr lineAddr, ProcId p, bool isWrite,
                          std::uint64_t* oldVer, std::uint64_t* newVer)
{
    Line& c = map_[lineAddr];
    *oldVer = c.version;
    const std::uint64_t me = std::uint64_t{1} << p;
    std::uint64_t invalidated = 0;
    if (isWrite && (c.holders & ~me) != 0) {
        ++c.version;
        invalidated = c.holders & ~me;
        c.holders = 0;
    }
    c.holders |= me;
    *newVer = c.version;
    return invalidated;
}

void
CacheSweep::access(ProcId p, Addr addr, int size, AccessType type)
{
    ensure(p >= 0 && p < cfg_.nprocs, "processor id out of range");
    Addr first = alignDown(addr, cfg_.lineSize);
    Addr last = alignDown(addr + size - 1, cfg_.lineSize);
    for (Addr line = first; line <= last; line += cfg_.lineSize)
        accessLine(p, line, type);
}

void
CacheSweep::accessLine(ProcId p, Addr lineAddr, AccessType type)
{
    const bool is_write = type == AccessType::Write;
    std::uint64_t old_ver = 0, new_ver = 0;
    // Every reference advances coherence, another shard's too: its
    // invalidations decide what this shard's processors still hold.
    for (std::uint64_t stale =
             coh_.advance(lineAddr, p, is_write, &old_ver, &new_ver) &
             mine_;
         stale != 0; stale &= stale - 1)
        invalidate(static_cast<std::size_t>(__builtin_ctzll(stale) - first_),
                   lineAddr);
    const std::size_t i = static_cast<std::size_t>(p - first_);
    if (i >= nmine_)
        return;
    ++accesses_[i];

    const std::uint64_t line_id = lineAddr >> lineShift_;
    const Addr front = lineAddr | 1;
    Addr* const ways = ways_.data() + i * procWords_;
    std::uint64_t* hits = hits_.data() + i * arrays_.size() * kLevelSlots;
    for (const SetArray& a : arrays_) {
        Addr* set = ways + a.offset + (line_id & a.setMask) * a.depth;
        if (set[0] == front) {
            // The most recently used line of the smallest cache: a hit
            // everywhere, with nothing to move.
            ++hits[1];
        } else {
            int w = wayOf(set, a.depth, lineAddr);
            if (w == a.depth)
                --w;  // a miss in a full set: the LRU line leaves it
            else if (set[w] != 0)
                ++hits[set[w] & kLevelMask];
            // Move the line to the front at level 1.  Each missing level
            // that was full pushes its last line past its way count, so
            // that line drops one level.
            for (; w > 0; --w) {
                Addr e = set[w - 1];
                if (w == a.wayCount[e & kLevelMask])
                    ++e;
                set[w] = e;
            }
            set[0] = front;
        }
        hits += kLevelSlots;
    }

    if (!stacks_.empty())
        profile_.record(
            p, stacks_[i].touch(lineAddr, old_ver, new_ver, is_write));
}

int
CacheSweep::wayOf(const Addr* set, int depth, Addr lineAddr)
{
    int w = 0;
    while (w < depth && set[w] != 0 && (set[w] ^ lineAddr) > kLevelMask)
        ++w;
    return w;
}

void
CacheSweep::invalidate(std::size_t i, Addr lineAddr)
{
    const std::uint64_t line_id = lineAddr >> lineShift_;
    Addr* const ways = ways_.data() + i * procWords_;
    for (const SetArray& a : arrays_) {
        Addr* set = ways + a.offset + (line_id & a.setMask) * a.depth;
        int w = wayOf(set, a.depth, lineAddr);
        if (w == a.depth || set[w] == 0)
            continue;
        // Close the gap: the lines behind keep their order and levels.
        for (; w + 1 < a.depth; ++w)
            set[w] = set[w + 1];
        set[w] = 0;
    }
}

void
CacheSweep::resetStats()
{
    std::fill(accesses_.begin(), accesses_.end(), 0);
    std::fill(hits_.begin(), hits_.end(), 0);
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
    auto col = columns_.begin();
    for (std::uint64_t size : cfg_.sizes) {
        for (int assoc : cfg_.assocs) {
            std::uint64_t m = 0;
            if (assoc == kFullyAssoc) {
                m = profile_.faMisses(size);
            } else {
                // A miss at a level is a reference that found its line
                // at no level up to it.
                m = r.accesses_;
                for (std::size_t i = 0; i < nmine_; ++i) {
                    const std::uint64_t* h =
                        &hits_[(i * arrays_.size() + col->array) *
                               kLevelSlots];
                    for (int l = 1; l <= col->level; ++l)
                        m -= h[l];
                }
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
