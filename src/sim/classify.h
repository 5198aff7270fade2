/**
 * @file
 * Extended Dubois miss classification with word-precise true/false
 * sharing disambiguation.
 *
 * The SPLASH-2 paper classifies misses with an extension of [DSR+93]
 * that handles finite caches.  We implement the practical scheme the
 * simulator community converged on:
 *
 *  - A processor's first miss to a line is *cold*.
 *  - A miss to a line the processor last lost to *replacement* is
 *    *capacity* (conflict misses are folded in, as in the paper).
 *  - A miss to a line the processor last lost to *invalidation* is a
 *    sharing miss: *true sharing* if any word the processor now accesses
 *    was written by another processor since the copy was lost, otherwise
 *    *false sharing*.
 *
 * Word granularity is 8 bytes.  A write clock advances once per
 * recorded write, and every written word keeps the clock value of its
 * latest write.  A loss is one clock value per (processor, line): the
 * clock at the moment of invalidation, or kReplaced.  At re-miss time
 * an accessed word whose last write is later than the loss clock was
 * written since the copy was lost.  The loss is recorded *before* the
 * triggering write, so the write that caused the invalidation
 * participates in the comparison.
 */
#ifndef SPLASH2_SIM_CLASSIFY_H
#define SPLASH2_SIM_CLASSIFY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/linetable.h"
#include "sim/stats.h"

namespace splash::sim {

class MissClassifier
{
  public:
    /** @param nprocs number of processors; @param lineSize in bytes. */
    MissClassifier(int nprocs, int lineSize);

    /** Record a write of [addr, addr+size). Call after any
     *  invalidations triggered by this write have been reported.
     *  Inline and memoized on the last written line: it runs on the
     *  write-hit fast path, where consecutive writes usually land on
     *  the same line.  The memo is a pool index, not a pointer,
     *  because the pool grows. */
    void
    recordWrite(Addr addr, int size)
    {
        Addr line = lineOf(addr);
        if (line != lastLine_) [[unlikely]] {
            lastWords_ = wordsOf(line);
            lastLine_ = line;
        }
        int first = static_cast<int>((addr - line) / kWordBytes);
        int last = static_cast<int>((addr + size - 1 - line) / kWordBytes);
        ensure(last < wordsPerLine_, "write spans past line end");
        ++clock_;
        std::uint64_t* words = &writeClock_[lastWords_];
        for (int w = first; w <= last; ++w)
            words[w] = clock_;
    }

    /** Processor @p p lost its copy of @p lineAddr to a coherence
     *  invalidation. */
    void noteInvalidated(ProcId p, Addr lineAddr);

    /** Processor @p p lost its copy of @p lineAddr to replacement. */
    void noteReplaced(ProcId p, Addr lineAddr);

    /** Classify the miss of processor @p p accessing [addr, addr+size)
     *  (clipped to one line by the caller). */
    MissType classifyMiss(ProcId p, Addr addr, int size);

  private:
    static constexpr int kWordBytes = 8;
    /** Loss value of a replacement (no write clock reaches it). */
    static constexpr std::uint64_t kReplaced = ~std::uint64_t{0};

    /** Pool index of @p line's first word, claimed zeroed on first use. */
    std::size_t wordsOf(Addr line);

    int wordsPerLine_;
    int lineSize_;

    /** Writes recorded so far; a word's entry is the clock value of its
     *  latest write (0: never written). */
    std::uint64_t clock_ = 0;
    /** Per-word last-write clocks, wordsPerLine_ per written line. */
    std::vector<std::uint64_t> writeClock_;
    /** Written line -> 1 + its slot in writeClock_ (0: none yet). */
    LineTable<std::uint32_t> slot_;
    /** recordWrite memo: the last line written and its pool index. */
    Addr lastLine_ = ~Addr{0};
    std::size_t lastWords_ = 0;

    /** Per-processor loss of each line: the write clock when the copy
     *  was invalidated, or kReplaced. */
    std::vector<LineTable<std::uint64_t>> lost_;

    Addr lineOf(Addr a) const { return alignDown(a, lineSize_); }
};

} // namespace splash::sim

#endif // SPLASH2_SIM_CLASSIFY_H
