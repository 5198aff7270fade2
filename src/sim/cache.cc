#include "sim/cache.h"

#include "base/log.h"

namespace splash::sim {

Cache::Cache(const CacheConfig& cfg, const Protocol& proto) : cfg_(cfg)
{
    cfg_.validate();
    for (int i = 0; i < kNumLineStates; ++i)
        writeNext_[i] = proto.silentWriteNext[i];
    ways_ = cfg_.assoc == 0 ? cfg_.numLines() : cfg_.assoc;
    lineShift_ = log2i(cfg_.lineSize);
    numSets_ = cfg_.numLines() / ways_;
    big_ = ways_ > 16;
    if (!big_)
        sets_.resize(numSets_ * ways_);
    else
        index_.reserve(cfg_.numLines() * 2);
}

LineState
Cache::probeForBig(Addr lineAddr, AccessType type)
{
    auto it = index_.find(lineAddr);
    if (it == index_.end())
        return LineState::Invalid;
    lru_.splice(lru_.begin(), lru_, it->second);
    LineState st = it->second->second;
    if (type == AccessType::Write)
        it->second->second = writeNext_[static_cast<int>(st)];
    return st;
}

Addr*
Cache::findWay(Addr lineAddr)
{
    Addr* base = &sets_[setIndex(lineAddr) * ways_];
    for (int w = 0; w < ways_; ++w) {
        if (holds(base[w], lineAddr))
            return &base[w];
    }
    return nullptr;
}

const Addr*
Cache::findWay(Addr lineAddr) const
{
    const Addr* base = &sets_[setIndex(lineAddr) * ways_];
    for (int w = 0; w < ways_; ++w) {
        if (holds(base[w], lineAddr))
            return &base[w];
    }
    return nullptr;
}

LineState
Cache::peek(Addr lineAddr) const
{
    if (big_) {
        auto it = index_.find(lineAddr);
        return it == index_.end() ? LineState::Invalid : it->second->second;
    }
    const Addr* w = findWay(lineAddr);
    return w ? stateOf(*w) : LineState::Invalid;
}

void
Cache::setState(Addr lineAddr, LineState st)
{
    ensure(st != LineState::Invalid, "use invalidate() to drop lines");
    if (big_) {
        auto it = index_.find(lineAddr);
        ensure(it != index_.end(), "setState on absent line");
        it->second->second = st;
        return;
    }
    Addr* w = findWay(lineAddr);
    ensure(w != nullptr, "setState on absent line");
    *w = lineAddr | static_cast<Addr>(st);
}

Cache::Victim
Cache::fill(Addr lineAddr, LineState st)
{
    ensure(st != LineState::Invalid, "cannot fill an Invalid line");
    Victim v;
    if (big_) {
        ensure(!index_.count(lineAddr), "fill of already-present line");
        if (index_.size() == static_cast<size_t>(cfg_.numLines())) {
            auto victim = std::prev(lru_.end());
            v.valid = true;
            v.lineAddr = victim->first;
            v.state = victim->second;
            index_.erase(victim->first);
            lru_.erase(victim);
        }
        lru_.emplace_front(lineAddr, st);
        index_[lineAddr] = lru_.begin();
        return v;
    }
    ensure(findWay(lineAddr) == nullptr, "fill of already-present line");
    Addr* base = &sets_[setIndex(lineAddr) * ways_];
    // The first empty way, else the last (least recently used) one.
    int slot = 0;
    while (slot < ways_ - 1 && base[slot] != 0)
        ++slot;
    if (base[slot] != 0) {
        v.valid = true;
        v.lineAddr = base[slot] & ~kStateMask;
        v.state = stateOf(base[slot]);
    }
    for (; slot > 0; --slot)
        base[slot] = base[slot - 1];
    base[0] = lineAddr | static_cast<Addr>(st);
    return v;
}

void
Cache::invalidate(Addr lineAddr)
{
    if (big_) {
        auto it = index_.find(lineAddr);
        if (it == index_.end())
            return;
        lru_.erase(it->second);
        index_.erase(it);
        return;
    }
    Addr* w = findWay(lineAddr);
    if (w)
        *w = 0;
}

std::uint64_t
Cache::residentLines() const
{
    if (big_)
        return index_.size();
    std::uint64_t n = 0;
    for (Addr w : sets_) {
        if (w != 0)
            ++n;
    }
    return n;
}

} // namespace splash::sim
