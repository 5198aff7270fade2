#include "apps/radix/radix.h"

#include <algorithm>

#include "base/log.h"
#include "base/rng.h"

namespace splash::apps::radix {

Radix::Radix(rt::Env& env, const Config& cfg) : env_(env), cfg_(cfg)
{
    const int p = env.nprocs();
    if (!isPow2(p))
        fatal("Radix: processor count must be a power of two");
    // Radix 1 would give zero-bit digits: at least 2.
    if (cfg_.radix < 2 || !isPow2(cfg_.radix))
        fatal("Radix: radix must be a power of two >= 2");
    if (cfg_.nkeys % p != 0)
        fatal("Radix: key count must be a multiple of the proc count");
    keysPerProc_ = cfg_.nkeys / p;

    int bits_per_digit = log2i(cfg_.radix);
    digits_ = (cfg_.maxKeyLog2 + bits_per_digit - 1) / bits_per_digit;

    keys0_ = rt::SharedArray<std::uint32_t>(env, cfg_.nkeys);
    keys1_ = rt::SharedArray<std::uint32_t>(env, cfg_.nkeys);
    rank_ = rt::SharedArray<std::uint32_t>(
        env, std::size_t(p) * cfg_.radix);
    nodeSum_ = rt::SharedArray<std::uint32_t>(
        env, std::size_t(2 * p) * cfg_.radix);
    nodePrefix_ = rt::SharedArray<std::uint32_t>(
        env, std::size_t(2 * p) * cfg_.radix);
    digitPrefix_ = rt::SharedArray<std::uint32_t>(env, cfg_.radix);

    for (int q = 0; q < p; ++q) {
        keys0_.setHome(q * keysPerProc_, keysPerProc_, q);
        keys1_.setHome(q * keysPerProc_, keysPerProc_, q);
        rank_.setHome(std::size_t(q) * cfg_.radix, cfg_.radix, q);
        // Leaf tree rows live at their processor; internal rows at the
        // processor that computes them (leftmost leaf).
        nodeSum_.setHome(std::size_t(p + q) * cfg_.radix, cfg_.radix, q);
        nodePrefix_.setHome(std::size_t(p + q) * cfg_.radix, cfg_.radix,
                            q);
    }
    for (int v = 1; v < p; ++v) {
        int leftmost = v;
        while (leftmost < p)
            leftmost *= 2;
        int owner = leftmost - p;
        nodeSum_.setHome(std::size_t(v) * cfg_.radix, cfg_.radix, owner);
        nodePrefix_.setHome(std::size_t(v) * cfg_.radix, cfg_.radix,
                            owner);
    }

    for (int v = 0; v < 2 * p; ++v) {
        upFlag_.push_back(std::make_unique<rt::Flag>(env));
        downFlag_.push_back(std::make_unique<rt::Flag>(env));
    }
    bar_ = std::make_unique<rt::Barrier>(env);

    Rng rng(cfg_.seed);
    std::uint32_t mask = (cfg_.maxKeyLog2 >= 32)
                             ? 0xffffffffu
                             : ((1u << cfg_.maxKeyLog2) - 1);
    inputCopy_.resize(cfg_.nkeys);
    for (long i = 0; i < cfg_.nkeys; ++i) {
        std::uint32_t k = static_cast<std::uint32_t>(rng.next()) & mask;
        keys0_.raw()[i] = k;
        inputCopy_[i] = k;
    }
    src_ = &keys0_;
    dst_ = &keys1_;
}

Result
Radix::run()
{
    env_.run([this](rt::ProcCtx& c) { body(c); });
    Result r;
    const std::uint32_t* out = src_->raw();
    std::vector<std::uint32_t> sorted = inputCopy_;
    std::sort(sorted.begin(), sorted.end());
    r.valid = true;
    double sum = 0.0;
    for (long i = 0; i < cfg_.nkeys; ++i) {
        if (out[i] != sorted[i])
            r.valid = false;
        sum += double(out[i]) * double((i % 64) + 1) * 1e-6;
    }
    r.checksum = sum;
    return r;
}

std::vector<std::uint32_t>
Radix::output() const
{
    const std::uint32_t* out = src_->raw();
    return std::vector<std::uint32_t>(out, out + cfg_.nkeys);
}

void
Radix::body(rt::ProcCtx& c)
{
    const int p = c.nprocs();
    int bits = log2i(cfg_.radix);
    for (int pass = 0; pass < digits_; ++pass) {
        int shift = pass * bits;
        histogram(c, *src_, shift);
        bar_->arrive(c);
        prefixTree(c);
        permute(c, *src_, *dst_, shift);
        bar_->arrive(c);
        if (c.id() == 0) {
            std::swap(src_, dst_);
            // Reset tree flags for the next pass.
            for (int v = 0; v < 2 * p; ++v) {
                upFlag_[v]->clear(c);
                downFlag_[v]->clear(c);
            }
        }
        bar_->arrive(c);
    }
}

void
Radix::histogram(rt::ProcCtx& c, rt::SharedArray<std::uint32_t>& keys,
                 int shift)
{
    const int q = c.id();
    const int r = cfg_.radix;
    const std::uint32_t dmask = r - 1;
    std::vector<std::uint32_t> local(r, 0);
    long base = q * keysPerProc_;
    for (long i = 0; i < keysPerProc_; ++i) {
        std::uint32_t k = keys.ld(base + i);
        ++local[(k >> shift) & dmask];
        c.work(2);
    }
    // Publish into this processor's leaf row of the prefix tree.
    std::size_t leaf = std::size_t(c.nprocs() + q) * r;
    for (int d = 0; d < r; ++d)
        nodeSum_.st(leaf + d, local[d]);
}

void
Radix::prefixTree(rt::ProcCtx& c)
{
    const int p = c.nprocs();
    const int q = c.id();
    const int r = cfg_.radix;

    // Up-sweep: walk up while we are a left child, combining sums.
    std::vector<int> path;
    int v = p + q;
    path.push_back(v);
    while (v > 1 && v % 2 == 0) {
        int u = v / 2;
        upFlag_[v + 1]->wait(c);  // right sibling's subtree done
        std::size_t su = std::size_t(u) * r;
        std::size_t sl = std::size_t(v) * r;
        std::size_t sr = std::size_t(v + 1) * r;
        for (int d = 0; d < r; ++d) {
            nodeSum_.st(su + d, nodeSum_.ld(sl + d) +
                                    nodeSum_.ld(sr + d));
            c.work(1);
        }
        v = u;
        path.push_back(v);
    }
    upFlag_[v]->set(c);

    // Root: global per-digit exclusive prefix (the serial O(r) step).
    if (v == 1) {
        std::uint32_t acc = 0;
        for (int d = 0; d < r; ++d) {
            digitPrefix_.st(d, acc);
            acc += nodeSum_.ld(std::size_t(1) * r + d);
            c.work(1);
        }
        for (int d = 0; d < r; ++d)
            nodePrefix_.st(std::size_t(1) * r + d, 0);
        downFlag_[1]->set(c);
    }

    // Down-sweep along the same path, top to leaf.
    int top = path.back();
    downFlag_[top]->wait(c);
    for (int i = static_cast<int>(path.size()) - 1; i > 0; --i) {
        int node = path[i];  // internal; its left child is path[i-1]
        int l = 2 * node, rr = 2 * node + 1;
        std::size_t sn = std::size_t(node) * r;
        std::size_t slp = std::size_t(l) * r;
        std::size_t srp = std::size_t(rr) * r;
        std::size_t sls = std::size_t(l) * r;
        for (int d = 0; d < r; ++d) {
            std::uint32_t pre = nodePrefix_.ld(sn + d);
            nodePrefix_.st(slp + d, pre);
            nodePrefix_.st(srp + d, pre + nodeSum_.ld(sls + d));
            c.work(2);
        }
        downFlag_[rr]->set(c);
    }

    // Leaf rank: rank[q][d] = digitPrefix[d] + cross-processor prefix.
    std::size_t leaf = std::size_t(p + q) * r;
    std::size_t myrank = std::size_t(q) * r;
    for (int d = 0; d < r; ++d) {
        rank_.st(myrank + d,
                 digitPrefix_.ld(d) + nodePrefix_.ld(leaf + d));
        c.work(1);
    }
}

void
Radix::permute(rt::ProcCtx& c, rt::SharedArray<std::uint32_t>& src,
               rt::SharedArray<std::uint32_t>& dst, int shift)
{
    const int q = c.id();
    const int r = cfg_.radix;
    const std::uint32_t dmask = r - 1;
    // Private copy of this processor's rank row.
    std::vector<std::uint32_t> offset(r);
    std::size_t myrank = std::size_t(q) * r;
    for (int d = 0; d < r; ++d)
        offset[d] = rank_.ld(myrank + d);
    long base = q * keysPerProc_;
    for (long i = 0; i < keysPerProc_; ++i) {
        std::uint32_t k = src.ld(base + i);
        std::uint32_t d = (k >> shift) & dmask;
        dst.st(offset[d]++, k);  // sender-determined write
        c.work(3);
    }
}

} // namespace splash::apps::radix
