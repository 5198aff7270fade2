#include "sim/reusedist.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

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

bool
ReuseDistProfile::operator==(const ReuseDistProfile& o) const
{
    return nprocs == o.nprocs && lineSize == o.lineSize &&
           procs == o.procs;
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

// ---------------------------------------------------------------------
// Sidecar serialization

namespace {

constexpr char kMagic[8] = {'S', '2', 'R', 'D', 'P', 'R', 'O', 'F'};
constexpr std::uint32_t kVersion = 1;

void
putU32(std::vector<std::uint8_t>& o, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        o.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t>& o, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        o.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

bool
getBytes(const std::uint8_t** p, const std::uint8_t* end, void* out,
         std::size_t n)
{
    if (static_cast<std::size_t>(end - *p) < n)
        return false;
    std::memcpy(out, *p, n);
    *p += n;
    return true;
}

bool
getU32(const std::uint8_t** p, const std::uint8_t* end,
       std::uint32_t* v)
{
    std::uint8_t b[4];
    if (!getBytes(p, end, b, 4))
        return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
        *v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
}

bool
getU64(const std::uint8_t** p, const std::uint8_t* end,
       std::uint64_t* v)
{
    std::uint8_t b[8];
    if (!getBytes(p, end, b, 8))
        return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
        *v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
}

void
putMeta(std::vector<std::uint8_t>& o, const TraceMeta& m)
{
    putU32(o, static_cast<std::uint32_t>(m.app.size()));
    o.insert(o.end(), m.app.begin(), m.app.end());
    putU32(o, static_cast<std::uint32_t>(m.nprocs));
    std::uint64_t scaleBits;
    std::memcpy(&scaleBits, &m.scale, 8);
    putU64(o, scaleBits);
    putU64(o, static_cast<std::uint64_t>(m.n));
    putU64(o, static_cast<std::uint64_t>(m.iters));
    putU64(o, static_cast<std::uint64_t>(m.aux));
    putU32(o, m.seed);
    putU64(o, m.quantum);
}

bool
getMeta(const std::uint8_t** p, const std::uint8_t* end, TraceMeta* m)
{
    std::uint32_t len;
    if (!getU32(p, end, &len) || len > 64)
        return false;
    m->app.resize(len);
    if (!getBytes(p, end, m->app.data(), len))
        return false;
    std::uint32_t nprocs, seed;
    std::uint64_t scaleBits, n, iters, aux, quantum;
    if (!getU32(p, end, &nprocs) || !getU64(p, end, &scaleBits) ||
        !getU64(p, end, &n) || !getU64(p, end, &iters) ||
        !getU64(p, end, &aux) || !getU32(p, end, &seed) ||
        !getU64(p, end, &quantum))
        return false;
    m->nprocs = static_cast<int>(nprocs);
    std::memcpy(&m->scale, &scaleBits, 8);
    m->n = static_cast<long>(n);
    m->iters = static_cast<long>(iters);
    m->aux = static_cast<long>(aux);
    m->seed = seed;
    m->quantum = quantum;
    return true;
}

} // namespace

bool
ReuseDistProfile::save(const std::string& path, const TraceMeta& meta,
                       std::string* err) const
{
    std::vector<std::uint8_t> buf;
    buf.insert(buf.end(), kMagic, kMagic + 8);
    putU32(buf, kVersion);
    putMeta(buf, meta);
    putU32(buf, static_cast<std::uint32_t>(lineSize));
    putU32(buf, static_cast<std::uint32_t>(procs.size()));
    putU32(buf, rdbucket::kBuckets);
    for (const Row& r : procs) {
        putU64(buf, r.accesses);
        putU64(buf, r.cold);
        putU64(buf, r.stale);
        for (std::uint64_t c : r.count)
            putU64(buf, c);
        for (std::uint64_t s : r.sumDist)
            putU64(buf, s);
    }
    buf.push_back(exec.valid ? 1 : 0);
    putU64(buf, exec.elapsed);
    putU32(buf, static_cast<std::uint32_t>(exec.procs.size()));
    for (const ExecProfile::Row& row : exec.procs)
        for (std::uint64_t v : row)
            putU64(buf, v);
    putU32(buf, tracecodec::crc32(buf.data(), buf.size()));

    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot write reuse-distance profile '" + tmp + "'";
        return false;
    }
    const bool ok =
        std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
    if (std::fclose(f) != 0 || !ok ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (err)
            *err = "failed writing reuse-distance profile '" + path +
                   "'";
        return false;
    }
    return true;
}

bool
ReuseDistProfile::load(const std::string& path, const TraceMeta& meta,
                       int expectLineSize, ReuseDistProfile* out,
                       std::string* err)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = "no reuse-distance profile at '" + path + "'";
        return false;
    }
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.insert(buf.end(), chunk, chunk + n);
    std::fclose(f);

    auto bad = [&](const char* why) {
        if (err)
            *err = "reuse-distance profile '" + path + "': " + why;
        return false;
    };
    if (buf.size() < 16)
        return bad("truncated");
    std::uint32_t storedCrc = 0;
    {
        const std::uint8_t* p = buf.data() + buf.size() - 4;
        getU32(&p, buf.data() + buf.size(), &storedCrc);
    }
    if (tracecodec::crc32(buf.data(), buf.size() - 4) != storedCrc)
        return bad("CRC mismatch (corrupt or truncated)");

    const std::uint8_t* p = buf.data();
    const std::uint8_t* end = buf.data() + buf.size() - 4;
    if (std::memcmp(p, kMagic, 8) != 0)
        return bad("bad magic");
    p += 8;
    std::uint32_t version;
    if (!getU32(&p, end, &version) || version != kVersion)
        return bad("unsupported format version");
    TraceMeta stored;
    if (!getMeta(&p, end, &stored))
        return bad("malformed identity");
    if (stored != meta)
        return bad(("identity mismatch: profile is for " +
                    stored.describe() + ", wanted " + meta.describe())
                       .c_str());
    std::uint32_t lineSize, nrows, nbuckets;
    if (!getU32(&p, end, &lineSize) || !getU32(&p, end, &nrows) ||
        !getU32(&p, end, &nbuckets))
        return bad("malformed header");
    if (expectLineSize > 0 &&
        lineSize != static_cast<std::uint32_t>(expectLineSize))
        return bad("line size mismatch");
    if (nbuckets != rdbucket::kBuckets)
        return bad("bucket layout mismatch");
    if (nrows > kMaxProcs)
        return bad("implausible processor count");

    ReuseDistProfile pr;
    pr.lineSize = static_cast<int>(lineSize);
    pr.nprocs = static_cast<int>(nrows);
    pr.procs.resize(nrows);
    for (Row& r : pr.procs) {
        if (!getU64(&p, end, &r.accesses) ||
            !getU64(&p, end, &r.cold) || !getU64(&p, end, &r.stale))
            return bad("truncated histogram");
        for (std::uint64_t& c : r.count)
            if (!getU64(&p, end, &c))
                return bad("truncated histogram");
        for (std::uint64_t& s : r.sumDist)
            if (!getU64(&p, end, &s))
                return bad("truncated histogram");
    }
    std::uint8_t valid;
    std::uint32_t execRows;
    std::uint64_t elapsed;
    if (!getBytes(&p, end, &valid, 1) || !getU64(&p, end, &elapsed) ||
        !getU32(&p, end, &execRows) || execRows > kMaxProcs)
        return bad("malformed execution profile");
    pr.exec.valid = valid != 0;
    pr.exec.elapsed = elapsed;
    pr.exec.procs.resize(execRows);
    for (ExecProfile::Row& row : pr.exec.procs)
        for (std::uint64_t& v : row)
            if (!getU64(&p, end, &v))
                return bad("truncated execution profile");
    if (p != end)
        return bad("trailing garbage");
    *out = std::move(pr);
    return true;
}

std::string
profilePathFor(const std::string& dirOrFile, const TraceMeta& m)
{
    return tracestore::pathFor(dirOrFile, m) + ".rdp";
}

} // namespace splash::sim
