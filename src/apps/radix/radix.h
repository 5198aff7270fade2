/**
 * @file
 * Radix kernel: iterative integer radix sort (Blelloch et al.), as in
 * SPLASH-2.
 *
 * One iteration per radix-r digit.  In each iteration a processor (1)
 * histograms its contiguous band of keys, (2) participates in a
 * binary-tree parallel prefix that turns the per-processor histograms
 * into global ranks (this is the O(r log p) phase whose imperfect
 * parallelism limits Radix's speedup -- and the source of the suite's
 * flag-based "pause" synchronizations), and (3) permutes its keys into
 * the destination array.  The permutation is sender-determined: keys
 * are communicated through writes, causing heavy all-to-all write
 * traffic.
 *
 * Paper default: 1 M keys, radix 1024; sim-scaled default: 256 K keys.
 */
#ifndef SPLASH2_APPS_RADIX_RADIX_H
#define SPLASH2_APPS_RADIX_RADIX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rt/env.h"
#include "rt/shared.h"
#include "rt/sync.h"

namespace splash::apps::radix {

struct Config
{
    long nkeys = 256 * 1024;
    int radix = 1024;          ///< power of two >= 2
    int maxKeyLog2 = 20;       ///< keys uniform in [0, 2^maxKeyLog2)
    unsigned seed = 1234;
};

struct Result
{
    bool valid = true;      ///< output sorted and a permutation
    double checksum = 0.0;  ///< sum digest of the sorted keys
};

class Radix
{
  public:
    Radix(rt::Env& env, const Config& cfg);

    Result run();

    /** The sorted keys after run() (uninstrumented copy). */
    std::vector<std::uint32_t> output() const;
    /** The generated input keys (uninstrumented copy). */
    std::vector<std::uint32_t> input() const { return inputCopy_; }

  private:
    void body(rt::ProcCtx& c);
    void histogram(rt::ProcCtx& c, rt::SharedArray<std::uint32_t>& keys,
                   int shift);
    void prefixTree(rt::ProcCtx& c);
    void permute(rt::ProcCtx& c, rt::SharedArray<std::uint32_t>& src,
                 rt::SharedArray<std::uint32_t>& dst, int shift);

    rt::Env& env_;
    Config cfg_;
    int digits_;         ///< number of radix passes
    long keysPerProc_;
    rt::SharedArray<std::uint32_t> keys0_, keys1_;
    rt::SharedArray<std::uint32_t>* src_ = nullptr;
    rt::SharedArray<std::uint32_t>* dst_ = nullptr;
    /** density_[p * radix + d]: per-processor digit histogram. */
    rt::SharedArray<std::uint32_t> density_;
    /** rank_[p * radix + d]: global start index for proc p, digit d. */
    rt::SharedArray<std::uint32_t> rank_;
    /** Binary-tree node sums: (2p-1) vectors of radix counters. */
    rt::SharedArray<std::uint32_t> nodeSum_;
    /** Down-sweep exclusive prefixes per tree node. */
    rt::SharedArray<std::uint32_t> nodePrefix_;
    /** Per-digit global exclusive prefix (root of the tree). */
    rt::SharedArray<std::uint32_t> digitPrefix_;
    std::vector<std::unique_ptr<rt::Flag>> upFlag_, downFlag_;
    std::unique_ptr<rt::Barrier> bar_;
    std::vector<std::uint32_t> inputCopy_;
};

} // namespace splash::apps::radix

#endif // SPLASH2_APPS_RADIX_RADIX_H
