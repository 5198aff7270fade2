#include "sim/sweep.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/log.h"

namespace splash::sim {

namespace {
/** Initial and minimum timestamp capacity.  Compaction resizes it to
 *  ~4x the live line count, so the bitmap and its tree stay cache
 *  resident instead of spanning a fixed 2^21 times. */
constexpr std::uint64_t kTimeCapMin = 1u << 16;

/** Bits 0 .. t % 64 of a word. */
inline std::uint64_t
upTo(std::uint64_t t)
{
    return ~std::uint64_t{0} >> (63 - (t & 63));
}
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
    last_.assign(nmine_, kNoLine);
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
    live_.assign(timeCap_ / 64, 0);
    tree_.assign(live_.size() + 1, 0);
}

void
StackDistance::treeAdd(std::uint64_t w, int delta)
{
    for (std::uint64_t i = w + 1; i < tree_.size(); i += i & (~i + 1))
        tree_[i] += delta;
}

std::uint64_t
StackDistance::liveBelow(std::uint64_t w) const
{
    std::uint64_t s = 0;
    for (; w > 0; w -= w & (~w + 1))
        s += tree_[w];
    return s;
}

void
StackDistance::compact()
{
    // Renumber live lines 1..k in touch order -- a line's new time is
    // its rank among the live times, so every stack distance computed
    // afterwards is unchanged -- and size the times to ~4x the live
    // set so they have headroom before the next compaction.
    std::vector<std::uint64_t> below(live_.size());
    std::uint64_t k = 0;
    for (std::size_t w = 0; w < live_.size(); ++w) {
        below[w] = k;
        k += __builtin_popcountll(live_[w]);
    }
    lines_.forEach([&](Addr, std::uint64_t& e) {
        const std::uint64_t t = e >> 1;
        const std::uint64_t rank =
            below[t >> 6] + __builtin_popcountll(live_[t >> 6] & upTo(t));
        e = rank << 1 | (e & 1);
    });
    std::uint64_t want = kTimeCapMin;
    while (want < 4 * (k + 1))
        want <<= 1;
    timeCap_ = want;
    live_.assign(timeCap_ / 64, 0);
    for (std::uint64_t t = 1; t <= k; ++t)
        live_[t >> 6] |= std::uint64_t{1} << (t & 63);
    now_ = k;
    // Every word below now_'s enters the tree.
    tree_.assign(live_.size() + 1, 0);
    for (std::uint64_t w = 0; w < (now_ >> 6); ++w)
        treeAdd(w, __builtin_popcountll(live_[w]));
}

std::uint64_t
StackDistance::touch(Addr line)
{
    if (now_ + 1 == timeCap_)
        compact();
    std::uint64_t& e = lines_[line];
    const std::uint64_t t = e >> 1;
    std::uint64_t out = kCold;
    if (t != 0) {
        const std::uint64_t w = t >> 6;
        if (e & 1) {
            // Coherence-invalidated at every capacity.
            out = kStale;
        } else if (w == now_ >> 6) {
            // Distance d lines were touched in between, all in now_'s
            // word; the line hits at capacity >= d + 1 lines.
            out = static_cast<std::uint64_t>(
                __builtin_popcountll(live_[w] & ~upTo(t)));
        } else {
            // Every line but those touched up to t.
            out = lines_.size() - liveBelow(w) -
                  static_cast<std::uint64_t>(
                      __builtin_popcountll(live_[w] & upTo(t)));
        }
        live_[w] &= ~(std::uint64_t{1} << (t & 63));
        if (w != now_ >> 6)
            treeAdd(w, -1);
    }
    ++now_;
    if ((now_ & 63) == 0)
        treeAdd((now_ >> 6) - 1,
                __builtin_popcountll(live_[(now_ >> 6) - 1]));
    live_[now_ >> 6] |= std::uint64_t{1} << (now_ & 63);
    e = now_ << 1;
    return out;
}

void
StackDistance::invalidate(Addr line)
{
    if (std::uint64_t* e = lines_.find(line))
        *e |= 1;
}

std::uint64_t
HolderCoherence::advance(Addr lineAddr, ProcId p, bool isWrite)
{
    std::uint64_t& h = holders_[lineAddr];
    const std::uint64_t me = std::uint64_t{1} << p;
    if (!isWrite) {
        h |= me;
        return 0;
    }
    // Every other copy is invalidated, and the writer holds it alone.
    const std::uint64_t invalidated = h & ~me;
    h = me;
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
    const std::size_t i = static_cast<std::size_t>(p - first_);
    if (!is_write && i < nmine_ && last_[i] == lineAddr) {
        // A repeat read: a hit at level 1 of every set array and at
        // stack distance 0, which moves no line and no holder.
        ++accesses_[i];
        ++repeats_;
        if (!stacks_.empty())
            profile_.record(p, 0);
        return;
    }
    // Every other reference advances coherence, another shard's too:
    // its invalidations decide what this shard's processors still hold.
    for (std::uint64_t stale =
             coh_.advance(lineAddr, p, is_write) & mine_;
         stale != 0; stale &= stale - 1)
        invalidate(static_cast<std::size_t>(__builtin_ctzll(stale) - first_),
                   lineAddr);
    if (i >= nmine_)
        return;
    ++accesses_[i];
    last_[i] = lineAddr;

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
        profile_.record(p, stacks_[i].touch(lineAddr));
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
    if (last_[i] == lineAddr)
        last_[i] = kNoLine;
    if (!stacks_.empty())
        stacks_[i].invalidate(lineAddr);
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
    repeats_ = 0;
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
                // at no level up to it (a repeat read found it at
                // level 1).
                m = r.accesses_ - repeats_;
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
