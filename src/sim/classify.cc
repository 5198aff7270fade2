#include "sim/classify.h"

#include "base/log.h"

namespace splash::sim {

MissClassifier::MissClassifier(int nprocs, int lineSize)
    : wordsPerLine_(lineSize / kWordBytes), lineSize_(lineSize),
      lost_(nprocs)
{
    ensure(lineSize >= kWordBytes, "line smaller than a word");
}

std::size_t
MissClassifier::wordsOf(Addr line)
{
    std::uint32_t& s = slot_[line];
    if (s == 0) {
        const std::size_t lines = writeClock_.size() / wordsPerLine_;
        ensure(lines < ~std::uint32_t{0},
               "too many written lines for the classifier's pool");
        s = static_cast<std::uint32_t>(lines + 1);
        writeClock_.resize(writeClock_.size() + wordsPerLine_);
    }
    return std::size_t(s - 1) * wordsPerLine_;
}

void
MissClassifier::noteInvalidated(ProcId p, Addr lineAddr)
{
    lost_[p][lineAddr] = clock_;
}

void
MissClassifier::noteReplaced(ProcId p, Addr lineAddr)
{
    lost_[p][lineAddr] = kReplaced;
}

MissType
MissClassifier::classifyMiss(ProcId p, Addr addr, int size)
{
    Addr line = lineOf(addr);
    const std::uint64_t* loss = lost_[p].find(line);
    if (!loss)
        return MissType::Cold;
    if (*loss == kReplaced)
        return MissType::Capacity;

    // Invalidation loss: true sharing iff an accessed word was written
    // after the copy was lost.
    const std::uint32_t* slot = slot_.find(line);
    // An invalidation implies at least one write, so the line has words.
    ensure(slot != nullptr, "invalidated line never written");
    const std::uint64_t* words =
        &writeClock_[std::size_t(*slot - 1) * wordsPerLine_];
    int first = static_cast<int>((addr - line) / kWordBytes);
    int last = static_cast<int>((addr + size - 1 - line) / kWordBytes);
    for (int w = first; w <= last && w < wordsPerLine_; ++w) {
        if (words[w] > *loss)
            return MissType::TrueSharing;
    }
    return MissType::FalseSharing;
}

} // namespace splash::sim
