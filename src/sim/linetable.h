/**
 * @file
 * Open-addressed table keyed by line (or granule) address.
 *
 * The working-set sweep, the race detector and the memory system look
 * up per-line state on every reference: the version stamp, a Mattson
 * stack's last-touch time, a race shadow word, a directory entry, a
 * miss classifier's loss clock.  A node-based hash map pays an allocation
 * per line and a pointer chase per lookup; this table stores the
 * values inline in one power-of-two array, probed linearly from a
 * multiplicative hash.  Entries are never erased, so a slot once
 * claimed keeps its key until the table grows.
 */
#ifndef SPLASH2_SIM_LINETABLE_H
#define SPLASH2_SIM_LINETABLE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/types.h"

namespace splash::sim {

/** Map from Addr to an inline @p V.  Key ~0 is reserved (it marks an
 *  empty slot); line and granule addresses never take it. */
template <typename V>
class LineTable
{
  public:
    LineTable() { resize(kInitialSlots); }

    /** The value stored under @p key, or nullptr.  The pointer is
     *  valid until the next insertion. */
    const V*
    find(Addr key) const
    {
        const Slot& s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }
    V*
    find(Addr key)
    {
        Slot& s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    /** The value under @p key, inserted value-initialized on first
     *  access.  The reference is valid until the next insertion. */
    V&
    operator[](Addr key)
    {
        std::size_t i = probe(key);
        if (slots_[i].key == key)
            return slots_[i].value;
        if ((used_ + 1) * 10 > slots_.size() * 7) {
            resize(slots_.size() * 2);
            i = probe(key);
        }
        ++used_;
        slots_[i].key = key;
        return slots_[i].value;
    }

    /** Number of keys stored. */
    std::size_t size() const { return used_; }

    /** Call @p f(key, value&) once per stored key, in slot order. */
    template <typename F>
    void
    forEach(F&& f)
    {
        for (Slot& s : slots_)
            if (s.key != kEmpty)
                f(s.key, s.value);
    }
    template <typename F>
    void
    forEach(F&& f) const
    {
        for (const Slot& s : slots_)
            if (s.key != kEmpty)
                f(s.key, s.value);
    }

  private:
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::size_t kInitialSlots = 1024;

    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    /** Index of @p key's slot, or of the empty slot that ends its
     *  probe sequence.  Fibonacci hashing (the top bits of
     *  key * 2^64/phi) spreads keys that differ only above the line
     *  offset. */
    std::size_t
    probe(Addr key) const
    {
        std::size_t i = static_cast<std::size_t>(
            (std::uint64_t(key) * 0x9E3779B97F4A7C15ull) >> shift_);
        while (slots_[i].key != key && slots_[i].key != kEmpty)
            i = (i + 1) & mask_;
        return i;
    }

    void
    resize(std::size_t slots)
    {
        std::vector<Slot> old(slots);
        old.swap(slots_);
        mask_ = slots - 1;
        shift_ = 64 - log2i(slots);
        for (Slot& s : old)
            if (s.key != kEmpty)
                slots_[probe(s.key)] = std::move(s);
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t used_ = 0;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_LINETABLE_H
