#include "sim/reusedist.h"

#include <algorithm>
#include <cmath>

#include "base/log.h"
#include "sim/sweep.h"

namespace splash::sim {

namespace rdbucket {

int
bucketOf(std::uint64_t b)
{
    if (b <= kExact)
        return static_cast<int>(b) - 1;
    // j = ceil(log2(b)): bucket (2^(j-1), 2^j]; j >= 9 since b > 256.
    int j = 64 - __builtin_clzll(b - 1);
    return static_cast<int>(kExact) + (j - 9);
}

std::uint64_t
bucketMin(int i)
{
    if (i < static_cast<int>(kExact))
        return static_cast<std::uint64_t>(i) + 1;
    int j = i - static_cast<int>(kExact) + 9;
    return (std::uint64_t{1} << (j - 1)) + 1;
}

std::uint64_t
bucketMax(int i)
{
    if (i < static_cast<int>(kExact))
        return static_cast<std::uint64_t>(i) + 1;
    int j = i - static_cast<int>(kExact) + 9;
    return j >= 64 ? ~std::uint64_t{0} : std::uint64_t{1} << j;
}

} // namespace rdbucket

ReuseDistProfile::Row::Row()
    : count(rdbucket::kBuckets, 0), sumDist(rdbucket::kBuckets, 0)
{
}

void
ReuseDistProfile::record(ProcId p, std::uint64_t distance)
{
    Row& row = procs[p];
    ++row.accesses;
    if (distance == StackDistance::kCold) {
        ++row.cold;
    } else if (distance == StackDistance::kStale) {
        ++row.stale;
    } else {
        const int i = rdbucket::bucketOf(distance + 1);
        ++row.count[i];
        row.sumDist[i] += distance;
    }
}

void
ReuseDistProfile::clearCounts()
{
    for (Row& r : procs) {
        r.accesses = r.cold = r.stale = 0;
        std::fill(r.count.begin(), r.count.end(), 0);
        std::fill(r.sumDist.begin(), r.sumDist.end(), 0);
    }
}

ReuseDistProfile&
ReuseDistProfile::operator+=(const ReuseDistProfile& o)
{
    if (procs.empty()) {
        nprocs = o.nprocs;
        lineSize = o.lineSize;
        procs = o.procs;
        return *this;
    }
    ensure(nprocs == o.nprocs && lineSize == o.lineSize,
           "summed reuse-distance profiles cover different machines");
    for (std::size_t p = 0; p < procs.size(); ++p) {
        Row& r = procs[p];
        const Row& q = o.procs[p];
        r.accesses += q.accesses;
        r.cold += q.cold;
        r.stale += q.stale;
        for (int i = 0; i < rdbucket::kBuckets; ++i) {
            r.count[i] += q.count[i];
            r.sumDist[i] += q.sumDist[i];
        }
    }
    return *this;
}

std::uint64_t
ReuseDistProfile::accesses() const
{
    std::uint64_t t = 0;
    for (const Row& r : procs)
        t += r.accesses;
    return t;
}

std::uint64_t
ReuseDistProfile::coldOrStale() const
{
    std::uint64_t t = 0;
    for (const Row& r : procs)
        t += r.coldOrStale();
    return t;
}

double
ReuseDistProfile::staleFraction() const
{
    std::uint64_t cs = coldOrStale(), st = 0;
    for (const Row& r : procs)
        st += r.stale;
    return cs ? double(st) / double(cs) : 0.0;
}

std::uint64_t
ReuseDistProfile::faMisses(std::uint64_t sizeBytes) const
{
    const std::uint64_t capLines = sizeBytes / lineSize;
    std::uint64_t m = 0;
    for (const Row& r : procs) {
        m += r.coldOrStale();
        for (int i = 0; i < rdbucket::kBuckets; ++i) {
            const std::uint64_t c = r.count[i];
            if (!c)
                continue;
            const std::uint64_t minB = rdbucket::bucketMin(i);
            if (minB > capLines) {
                m += c;  // every reuse in the bucket needs more lines
                continue;
            }
            const std::uint64_t maxB = rdbucket::bucketMax(i);
            if (maxB > capLines) {
                // A non-power-of-two capacity splits this one bucket;
                // apportion its reuses uniformly over its range.
                m += static_cast<std::uint64_t>(std::llround(
                    double(c) * double(maxB - capLines) /
                    double(maxB - minB + 1)));
            }
        }
    }
    return m;
}

namespace {

/** P[Binomial(n, p) >= ways] with real-valued n (a bucket's mean
 *  distance): the probability that the d lines touched between
 *  reuses evict the line from its set in a ways-way cache whose
 *  random set index hits the reuse's set with probability p. */
double
pConflictMiss(double n, double p, std::uint64_t ways)
{
    // Stable ascending recurrence over P[X = k]; t underflows to 0
    // for large n (a certain miss) and is clamped at 0 once k
    // exceeds n (impossible outcomes of the real-valued extension).
    double t = std::exp(n * std::log1p(-p));
    double cdf = t;
    for (std::uint64_t k = 0; k + 1 < ways; ++k) {
        t *= (n - double(k)) / double(k + 1) * p / (1.0 - p);
        if (!(t > 0)) {
            t = 0;
            break;
        }
        cdf += t;
    }
    return std::min(1.0, std::max(0.0, 1.0 - cdf));
}

} // namespace

double
ReuseDistProfile::missRate(std::uint64_t sizeBytes, int assoc) const
{
    const std::uint64_t total = accesses();
    if (!total)
        return 0.0;
    const std::uint64_t capLines = sizeBytes / lineSize;
    if (assoc == kFullyAssoc)
        return double(faMisses(sizeBytes)) / double(total);
    const std::uint64_t ways =
        std::min<std::uint64_t>(assoc, capLines);
    const std::uint64_t sets = capLines / ways;
    if (sets <= 1)  // one set of capLines ways degenerates to full LRU
        return double(faMisses(sizeBytes)) / double(total);
    const double p = 1.0 / double(sets);
    double m = 0;
    for (const Row& r : procs) {
        m += double(r.coldOrStale());
        for (int i = 0; i < rdbucket::kBuckets; ++i) {
            const std::uint64_t c = r.count[i];
            if (!c)
                continue;
            const double n = double(r.sumDist[i]) / double(c);
            m += double(c) * pConflictMiss(n, p, ways);
        }
    }
    return m / double(total);
}

} // namespace splash::sim
