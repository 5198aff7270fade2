#include "sim/tracestore.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "base/log.h"

namespace splash::sim {

namespace tracecodec {

void
putVarint(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
getVarint(const std::uint8_t** p, const std::uint8_t* end,
          std::uint64_t* v)
{
    std::uint64_t out = 0;
    int shift = 0;
    const std::uint8_t* q = *p;
    while (q < end && shift < 70) {
        std::uint8_t b = *q++;
        out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) {
            *p = q;
            *v = out;
            return true;
        }
        shift += 7;
    }
    return false;  // ran off the buffer or > 10 bytes: corrupt
}

namespace {

struct CrcTable
{
    std::uint32_t t[256];
    CrcTable()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

} // namespace

std::uint32_t
crc32(const void* data, std::size_t n, std::uint32_t seed)
{
    static const CrcTable tbl;
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = tbl.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// LZ77, LZ4-flavored byte format.  A sequence is:
//   token  = (litLen : 4 high bits | matchLen-4 : 4 low bits)
//   [255-extension bytes for litLen >= 15]
//   literals
//   varint match offset (reaching the whole block)
//   [255-extension bytes for matchLen >= 19]
// The final sequence carries literals only (no offset); matches are
// at least 4 bytes.  The window spans the whole chunk: the reference
// streams repeat with the period of an application iteration, which
// is far longer than a classic 64 KB window, and a whole-chunk reach
// lets one iteration match against the previous one.

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = std::size_t(1) << 26;
constexpr int kHashBits = 17;

inline std::uint32_t
load32(const std::uint8_t* p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline std::uint32_t
hash32(std::uint32_t v)
{
    return (v * 2654435761u) >> (32 - kHashBits);
}

void
putLen(std::vector<std::uint8_t>& out, std::size_t len)
{
    while (len >= 255) {
        out.push_back(255);
        len -= 255;
    }
    out.push_back(static_cast<std::uint8_t>(len));
}

void
emitSequence(std::vector<std::uint8_t>& out, const std::uint8_t* lit,
             std::size_t litLen, std::size_t offset,
             std::size_t matchLen)
{
    const std::size_t litCode = litLen < 15 ? litLen : 15;
    const std::size_t matCode =
        matchLen == 0 ? 0
                      : (matchLen - kMinMatch < 15 ? matchLen - kMinMatch
                                                   : 15);
    out.push_back(static_cast<std::uint8_t>((litCode << 4) | matCode));
    if (litCode == 15)
        putLen(out, litLen - 15);
    out.insert(out.end(), lit, lit + litLen);
    if (matchLen == 0)
        return;  // terminal literals-only sequence
    putVarint(out, offset);
    if (matCode == 15)
        putLen(out, matchLen - kMinMatch - 15);
}

} // namespace

void
lzCompress(const std::uint8_t* in, std::size_t n,
           std::vector<std::uint8_t>& out)
{
    std::vector<std::uint32_t> head(std::size_t(1) << kHashBits, 0);
    // Position 0 is the "empty" sentinel, so stored positions are +1.
    std::size_t i = 0;
    std::size_t anchor = 0;
    while (n >= kMinMatch && i + kMinMatch <= n) {
        const std::uint32_t h = hash32(load32(in + i));
        const std::size_t cand = head[h];
        head[h] = static_cast<std::uint32_t>(i + 1);
        if (cand != 0) {
            const std::size_t c = cand - 1;
            if (i - c <= kMaxOffset && load32(in + c) == load32(in + i)) {
                std::size_t len = kMinMatch;
                while (i + len < n && in[c + len] == in[i + len])
                    ++len;
                emitSequence(out, in + anchor, i - anchor, i - c, len);
                // Index a few positions inside the match so long runs
                // of a short period stay discoverable.
                const std::size_t stop =
                    std::min(i + len, n >= kMinMatch ? n - kMinMatch : 0);
                for (std::size_t j = i + 1; j < stop; j += 13)
                    head[hash32(load32(in + j))] =
                        static_cast<std::uint32_t>(j + 1);
                i += len;
                anchor = i;
                continue;
            }
        }
        ++i;
    }
    emitSequence(out, in + anchor, n - anchor, 0, 0);
}

bool
lzDecompress(const std::uint8_t* in, std::size_t n, std::uint8_t* out,
             std::size_t outN)
{
    const std::uint8_t* p = in;
    const std::uint8_t* end = in + n;
    std::size_t o = 0;
    auto readLen = [&](std::size_t base, std::size_t* len) {
        *len = base;
        if (base != 15)
            return true;
        for (;;) {
            if (p >= end)
                return false;
            std::uint8_t b = *p++;
            *len += b;
            if (b != 255)
                return true;
        }
    };
    for (;;) {
        if (p >= end)
            return false;  // missing terminal sequence
        const std::uint8_t token = *p++;
        std::size_t litLen;
        if (!readLen(token >> 4, &litLen))
            return false;
        if (litLen > static_cast<std::size_t>(end - p) ||
            litLen > outN - o)
            return false;
        if (litLen)  // an empty output may have a null buffer
            std::memcpy(out + o, p, litLen);
        p += litLen;
        o += litLen;
        if (p == end)
            return o == outN;  // terminal sequence
        std::uint64_t off64 = 0;
        if (!getVarint(&p, end, &off64))
            return false;
        const std::size_t offset = static_cast<std::size_t>(off64);
        if (offset == 0 || offset > o || offset > kMaxOffset)
            return false;
        std::size_t matchLen;
        if (!readLen(token & 0x0f, &matchLen))
            return false;
        matchLen += kMinMatch;
        if (matchLen > outN - o)
            return false;
        // Byte-wise copy: overlapping matches (offset < length)
        // replicate the period, which is the point.
        const std::uint8_t* src = out + o - offset;
        for (std::size_t k = 0; k < matchLen; ++k)
            out[o + k] = src[k];
        o += matchLen;
        if (o == outN && p == end)
            return true;
    }
}

} // namespace tracecodec

using namespace tracecodec;

// ---------------------------------------------------------------------
// File-format constants.

namespace {

constexpr char kMagic[8] = {'S', '2', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kHeaderBytes = 128;
constexpr std::uint32_t kChunkMagic = 0x4b433253u;   // "S2CK"
constexpr std::uint32_t kFooterMagic = 0x54463253u;  // "S2FT"
constexpr std::size_t kAppBytes = 16;
constexpr std::size_t kFrameBytes = 24;

constexpr std::uint8_t kEvSync = 0;
constexpr std::uint8_t kEvReset = 1;
constexpr std::uint8_t kEvPlace = 2;

constexpr std::uint8_t kSizePlanes = 0;  ///< dictionary + index planes
constexpr std::uint8_t kSizeRuns = 1;    ///< sizes as RLE runs

constexpr std::uint8_t kAddrPlain = 0;  ///< delta vs previous address
constexpr std::uint8_t kAddrPred = 1;   ///< selector plane + predictor

/** Address-column predictor geometry (part of the on-disk format):
 *  the second predictor is the prior target of the previous address's
 *  4 KiB page, through a per-processor direct-mapped table of 4096
 *  slots (16 MiB of distinct pages before aliasing). */
constexpr unsigned kPageShift = 12;
constexpr std::size_t kAddrSlots = std::size_t(1) << 12;

/** Upper bound on encoded bytes per record or event: the widest
 *  record costs a processor run (12 B) + 2 bitmap bits + a size run
 *  (11 B) + two 10-byte varint deltas, and the widest event a
 *  position delta + place triple (31 B) -- both comfortably under
 *  this.  Lets the reader reject an implausible chunk size before
 *  allocating a decode buffer from it. */
constexpr std::uint64_t kMaxEncPerItem = 64;

template <typename T>
void
put(std::uint8_t* p, std::size_t off, T v)
{
    std::memcpy(p + off, &v, sizeof(T));
}

template <typename T>
T
get(const std::uint8_t* p, std::size_t off)
{
    T v;
    std::memcpy(&v, p + off, sizeof(T));
    return v;
}

/** Serialize the 128-byte header; totals/finalized vary per call. */
void
buildHeader(std::uint8_t (&h)[kHeaderBytes], const TraceMeta& m,
            std::uint64_t records, std::uint64_t syncs,
            std::uint64_t chunks, std::uint64_t payloadBytes,
            bool finalized, std::uint32_t footerBytes)
{
    std::memset(h, 0, sizeof(h));
    std::memcpy(h, kMagic, 8);
    put<std::uint32_t>(h, 8, kFormatVersion);
    put<std::uint32_t>(h, 12, kHeaderBytes);
    std::memcpy(h + 16, m.app.c_str(),
                std::min(m.app.size(), kAppBytes - 1));
    put<std::uint32_t>(h, 32, static_cast<std::uint32_t>(m.nprocs));
    put<std::uint32_t>(h, 36, m.seed);
    put<double>(h, 40, m.scale);
    put<std::int64_t>(h, 48, m.n);
    put<std::int64_t>(h, 56, m.iters);
    put<std::int64_t>(h, 64, m.aux);
    put<std::uint64_t>(h, 72, m.quantum);
    put<std::uint64_t>(h, 80, records);
    put<std::uint64_t>(h, 88, syncs);
    put<std::uint64_t>(h, 96, chunks);
    put<std::uint64_t>(h, 104, payloadBytes);
    h[112] = finalized ? 1 : 0;
    put<std::uint32_t>(h, 116, footerBytes);
    put<std::uint32_t>(h, 124, crc32(h, 124));
}

std::uint64_t
fnv1a64(const void* data, std::size_t n, std::uint64_t h)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

bool
TraceMeta::operator==(const TraceMeta& o) const
{
    return app == o.app && nprocs == o.nprocs && scale == o.scale &&
           n == o.n && iters == o.iters && aux == o.aux &&
           seed == o.seed && quantum == o.quantum;
}

std::string
TraceMeta::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s P=%d scale=%g n=%ld iters=%ld aux=%ld seed=%u "
                  "quantum=%llu",
                  app.c_str(), nprocs, scale, n, iters, aux, seed,
                  static_cast<unsigned long long>(quantum));
    return buf;
}

std::string
TraceMeta::fileName() const
{
    std::uint64_t h = 14695981039346656037ull;
    h = fnv1a64(&scale, sizeof(scale), h);
    std::int64_t v = n;
    h = fnv1a64(&v, sizeof(v), h);
    v = iters;
    h = fnv1a64(&v, sizeof(v), h);
    v = aux;
    h = fnv1a64(&v, sizeof(v), h);
    std::uint32_t s = seed;
    h = fnv1a64(&s, sizeof(s), h);
    h = fnv1a64(&quantum, sizeof(quantum), h);
    std::string lower;
    for (char c : app)
        lower.push_back(
            c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s_p%d_%016llx.s2t", lower.c_str(),
                  nprocs, static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// ReplayPlacement (mirrors rt::SharedHeap span semantics).

void
ReplayPlacement::reset(int nprocs, int lineSize)
{
    nprocs_ = nprocs;
    lineShift_ = log2i(static_cast<std::uint64_t>(lineSize));
    homes_.clear();
}

void
ReplayPlacement::apply(Addr start, std::uint64_t bytes, ProcId home)
{
    homes_[start] = Span{start + bytes, home};
}

ProcId
ReplayPlacement::homeOf(Addr lineAddr) const
{
    auto it = homes_.upper_bound(lineAddr);
    if (it != homes_.begin()) {
        --it;
        if (lineAddr < it->second.end)
            return it->second.home;
    }
    return static_cast<ProcId>((lineAddr >> lineShift_) % nprocs_);
}

// ---------------------------------------------------------------------
// TraceWriter.

TraceWriter::TraceWriter(std::string path, const TraceMeta& meta,
                         std::size_t chunkRecords)
    : path_(std::move(path)), meta_(meta), chunkRecords_(chunkRecords)
{
    ensure(chunkRecords_ >= 1, "trace chunk size must be positive");
    ensure(meta_.nprocs >= 1 && meta_.nprocs <= kMaxProcs,
           "trace meta processor count out of range");
    tmpPath_ = path_ + ".tmp." + std::to_string(::getpid());
    f_ = std::fopen(tmpPath_.c_str(), "wb");
    if (f_ == nullptr)
        fatal("cannot create trace file '" + tmpPath_ + "'");
    recs_.reserve(chunkRecords_);
    runsByProc_.resize(static_cast<std::size_t>(meta_.nprocs));
    addrTbl_.assign(static_cast<std::size_t>(meta_.nprocs),
                    std::vector<Addr>(kAddrSlots, 0));
    lastAddr_.assign(static_cast<std::size_t>(meta_.nprocs), 0);
    lastLtime_.assign(static_cast<std::size_t>(meta_.nprocs), 0);
    // Provisional header (totals unknown); rewritten by finalize().
    std::uint8_t h[kHeaderBytes];
    buildHeader(h, meta_, 0, 0, 0, 0, /*finalized=*/false, 0);
    if (std::fwrite(h, 1, sizeof(h), f_) != sizeof(h))
        fatal("cannot write trace header to '" + tmpPath_ + "'");
}

TraceWriter::~TraceWriter()
{
    if (f_ != nullptr)
        std::fclose(f_);
    if (!finalized_)
        ::unlink(tmpPath_.c_str());  // aborted recording
}

void
TraceWriter::access(const AccessRec& r)
{
    recs_.push_back(r);
    if (recs_.size() == chunkRecords_)
        flushChunk();
}

void
TraceWriter::sync(const SyncRec& r)
{
    Event e;
    e.pos = static_cast<std::uint32_t>(recs_.size());
    e.kind = kEvSync;
    e.sync = r;
    events_.push_back(e);
    ++totalSyncs_;
}

void
TraceWriter::resetStats()
{
    Event e;
    e.pos = static_cast<std::uint32_t>(recs_.size());
    e.kind = kEvReset;
    events_.push_back(e);
}

void
TraceWriter::place(const PlaceRec& r)
{
    Event e;
    e.pos = static_cast<std::uint32_t>(recs_.size());
    e.kind = kEvPlace;
    e.place = r;
    events_.push_back(e);
}

void
TraceWriter::flushChunk()
{
    if (recs_.empty() && events_.empty())
        return;
    enc_.clear();
    const std::size_t n = recs_.size();

    // Column 1: processor run lengths.
    {
        std::uint64_t runs = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (i == 0 || recs_[i].proc != recs_[i - 1].proc)
                ++runs;
        putVarint(enc_, runs);
        std::size_t i = 0;
        while (i < n) {
            std::size_t j = i + 1;
            while (j < n && recs_[j].proc == recs_[i].proc)
                ++j;
            putVarint(enc_, zigzag(recs_[i].proc));
            putVarint(enc_, j - i);
            i = j;
        }
    }
    // Columns 2+3: access-type and atomic-flag bitmaps.
    {
        const std::size_t bytes = (n + 7) / 8;
        std::size_t base = enc_.size();
        enc_.resize(base + 2 * bytes, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (recs_[i].type == AccessType::Write)
                enc_[base + i / 8] |= std::uint8_t(1u << (i % 8));
            if (recs_[i].atomic())
                enc_[base + bytes + i / 8] |=
                    std::uint8_t(1u << (i % 8));
        }
    }
    // The delta columns below are grouped by processor: all of
    // processor 0's records (in stream order), then processor 1's,
    // and so on.  Grouping keeps each processor's regular pattern
    // contiguous, which the LZ stage compresses far better than the
    // scheduler's interleaving of them.  The groups are reconstructed
    // on both sides from the processor runs of column 1.
    for (auto& rp : runsByProc_)
        rp.clear();
    {
        std::size_t i = 0;
        while (i < n) {
            std::size_t j = i + 1;
            while (j < n && recs_[j].proc == recs_[i].proc)
                ++j;
            runsByProc_[static_cast<std::size_t>(recs_[i].proc)]
                .push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j - i)});
            i = j;
        }
    }
    // Column 4: access sizes.  A chunk almost always uses a handful
    // of distinct sizes (word, double, the odd struct copy), so the
    // common encoding is a small per-chunk dictionary sorted by
    // frequency plus two bit-planes of dictionary indices, laid out
    // in grouped (per-processor) order: the dominant size is index 0,
    // so the planes are near-zero and the LZ stage collapses them.
    // Chunks with more than four distinct sizes fall back to runs.
    {
        std::vector<std::pair<std::int64_t, std::int32_t>> dict;
        for (std::size_t i = 0; i < n && dict.size() <= 4; ++i) {
            const auto s = recs_[i].size;
            bool seen = false;
            for (auto& d : dict)
                if (d.second == s) {
                    --d.first;  // negated count: sort puts it first
                    seen = true;
                    break;
                }
            if (!seen)
                dict.push_back({-1, s});
        }
        const bool planar = dict.size() <= 4;
        enc_.push_back(planar ? kSizePlanes : kSizeRuns);
        if (planar) {
            std::sort(dict.begin(), dict.end());
            enc_.push_back(static_cast<std::uint8_t>(dict.size()));
            for (const auto& d : dict)
                putVarint(enc_, zigzag(d.second));
            const std::size_t bytes = (n + 7) / 8;
            std::size_t base = enc_.size();
            enc_.resize(base + 2 * bytes, 0);
            std::size_t g = 0;
            for (int p = 0; p < meta_.nprocs; ++p)
                for (const auto& run :
                     runsByProc_[static_cast<std::size_t>(p)])
                    for (std::uint32_t i = run.first;
                         i < run.first + run.second; ++i, ++g) {
                        unsigned idx = 0;
                        while (dict[idx].second != recs_[i].size)
                            ++idx;
                        if (idx & 1u)
                            enc_[base + g / 8] |=
                                std::uint8_t(1u << (g % 8));
                        if (idx & 2u)
                            enc_[base + bytes + g / 8] |=
                                std::uint8_t(1u << (g % 8));
                    }
        } else {
            std::uint64_t runs = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (i == 0 || recs_[i].size != recs_[i - 1].size)
                    ++runs;
            putVarint(enc_, runs);
            std::size_t i = 0;
            while (i < n) {
                std::size_t j = i + 1;
                while (j < n && recs_[j].size == recs_[i].size)
                    ++j;
                putVarint(enc_, zigzag(recs_[i].size));
                putVarint(enc_, j - i);
                i = j;
            }
        }
    }
    // Column 5: address deltas, grouped by processor.  Two candidate
    // encodings are built, both replayable from decoded history:
    //
    //   kAddrPlain -- delta against the processor's previous address.
    //     Iteration-periodic streams repeat the exact byte sequence,
    //     which the whole-chunk LZ window collapses.
    //   kAddrPred  -- a selector bit-plane plus the delta against the
    //     better of that previous address and a page-keyed table (the
    //     prior target of the previous address's page), which
    //     untangles interleaved streams -- scatter buckets, molecule
    //     pairs -- into their own near-constant strides.
    //
    // Whichever LZ-compresses smaller is written behind a mode byte.
    // The prediction-state updates depend only on the address stream,
    // never on the mode, so chunks may switch modes freely.
    {
        const std::size_t bytes = (n + 7) / 8;
        std::vector<std::uint8_t> plainCol;
        std::vector<std::uint8_t> predCol(bytes, 0);
        ltex_.clear();  // scratch may hold a previous chunk's bytes
        std::size_t g = 0;
        for (int p = 0; p < meta_.nprocs; ++p) {
            const auto pi = static_cast<std::size_t>(p);
            Addr* tbl = addrTbl_[pi].data();
            Addr last = lastAddr_[pi];
            for (const auto& run : runsByProc_[pi])
                for (std::uint32_t i = run.first;
                     i < run.first + run.second; ++i, ++g) {
                    const Addr a = recs_[i].addr;
                    const std::size_t slot =
                        (last >> kPageShift) & (kAddrSlots - 1);
                    const auto dLast =
                        zigzag(static_cast<std::int64_t>(a - last));
                    const auto dTbl =
                        zigzag(static_cast<std::int64_t>(a -
                                                         tbl[slot]));
                    putVarint(plainCol, dLast);
                    if (dTbl < dLast) {
                        predCol[g / 8] |= std::uint8_t(1u << (g % 8));
                        putVarint(ltex_, dTbl);
                    } else {
                        putVarint(ltex_, dLast);
                    }
                    tbl[slot] = a;
                    last = a;
                }
            lastAddr_[pi] = last;
        }
        predCol.insert(predCol.end(), ltex_.begin(), ltex_.end());
        ltex_.clear();
        comp_.clear();
        lzCompress(plainCol.data(), plainCol.size(), comp_);
        const std::size_t plainLz = std::min(comp_.size(),
                                             plainCol.size());
        comp_.clear();
        lzCompress(predCol.data(), predCol.size(), comp_);
        const std::size_t predLz = std::min(comp_.size(),
                                            predCol.size());
        if (predLz < plainLz) {
            enc_.push_back(kAddrPred);
            enc_.insert(enc_.end(), predCol.begin(), predCol.end());
        } else {
            enc_.push_back(kAddrPlain);
            enc_.insert(enc_.end(), plainCol.begin(), plainCol.end());
        }
    }
    // Column 6: logical-time deltas, grouped by processor.  An app's
    // clock advances by a handful of distinct strides (usually just
    // 1, plus the cost of the instruction block between references),
    // so the deltas get the same treatment as the sizes: a per-chunk
    // dictionary of the most frequent deltas plus two bit-planes of
    // dictionary indices in grouped order; index 3 escapes to an
    // explicit varint (appended after the planes) unless the
    // dictionary is exact with four entries.  Sync events share the
    // same per-processor clock state (encoded below): all accesses
    // update it first, then events, exactly the order the decoder
    // replays.
    {
        ltd_.clear();
        for (int p = 0; p < meta_.nprocs; ++p) {
            Tick last = lastLtime_[static_cast<std::size_t>(p)];
            for (const auto& run :
                 runsByProc_[static_cast<std::size_t>(p)])
                for (std::uint32_t i = run.first;
                     i < run.first + run.second; ++i) {
                    ltd_.push_back(static_cast<std::int64_t>(
                        recs_[i].ltime - last));
                    last = recs_[i].ltime;
                }
            lastLtime_[static_cast<std::size_t>(p)] = last;
        }
        // Frequency-ranked dictionary; tracking caps at 32 distinct
        // deltas (beyond that the stragglers escape anyway).
        std::vector<std::pair<std::int64_t, std::int64_t>> freq;
        for (const std::int64_t d : ltd_) {
            bool seen = false;
            for (auto& f : freq)
                if (f.second == d) {
                    --f.first;
                    seen = true;
                    break;
                }
            if (!seen && freq.size() < 32)
                freq.push_back({-1, d});
        }
        std::sort(freq.begin(), freq.end());
        // Four entries only when they cover every delta; otherwise
        // index 3 is the escape marker.
        const unsigned dictN = freq.size() <= 4
                                   ? static_cast<unsigned>(freq.size())
                                   : 3u;
        enc_.push_back(static_cast<std::uint8_t>(dictN));
        for (unsigned d = 0; d < dictN; ++d)
            putVarint(enc_, zigzag(freq[d].second));
        const std::size_t bytes = (n + 7) / 8;
        const std::size_t base = enc_.size();
        enc_.resize(base + 2 * bytes, 0);
        ltex_.clear();
        for (std::size_t g = 0; g < ltd_.size(); ++g) {
            unsigned idx = 0;
            while (idx < dictN && freq[idx].second != ltd_[g])
                ++idx;
            if (idx == dictN && dictN == 4)
                fatal("ltime dictionary claimed exact but is not");
            if (idx == dictN) {
                idx = 3;
                putVarint(ltex_, zigzag(ltd_[g]));
            }
            if (idx & 1u)
                enc_[base + g / 8] |= std::uint8_t(1u << (g % 8));
            if (idx & 2u)
                enc_[base + bytes + g / 8] |=
                    std::uint8_t(1u << (g % 8));
        }
        enc_.insert(enc_.end(), ltex_.begin(), ltex_.end());
    }
    // Column 7: stream-ordered events.
    {
        putVarint(enc_, events_.size());
        std::uint64_t prevPos = 0;
        for (const Event& e : events_) {
            putVarint(enc_, e.pos - prevPos);
            prevPos = e.pos;
            enc_.push_back(e.kind);
            if (e.kind == kEvSync) {
                const SyncRec& s = e.sync;
                enc_.push_back(static_cast<std::uint8_t>(
                    (s.op == SyncOp::Release ? 1 : 0) |
                    (static_cast<unsigned>(s.prim) << 1)));
                putVarint(enc_, s.obj);
                putVarint(enc_, zigzag(s.proc));
                const auto p = static_cast<std::size_t>(
                    s.proc >= 0 ? s.proc : 0);
                putVarint(enc_, zigzag(static_cast<std::int64_t>(
                                    s.ltime - lastLtime_[p])));
                lastLtime_[p] = s.ltime;
            } else if (e.kind == kEvPlace) {
                putVarint(enc_, e.place.addr);
                putVarint(enc_, e.place.bytes);
                putVarint(enc_, zigzag(e.place.home));
            }
        }
    }

    comp_.clear();
    lzCompress(enc_.data(), enc_.size(), comp_);
    const bool stored = comp_.size() >= enc_.size();
    const std::uint8_t* payload = stored ? enc_.data() : comp_.data();
    const std::size_t payloadN = stored ? enc_.size() : comp_.size();

    std::uint8_t fr[kFrameBytes];
    put<std::uint32_t>(fr, 0, kChunkMagic);
    put<std::uint32_t>(fr, 4, static_cast<std::uint32_t>(n));
    put<std::uint32_t>(fr, 8,
                       static_cast<std::uint32_t>(events_.size()));
    put<std::uint32_t>(fr, 12,
                       static_cast<std::uint32_t>(enc_.size()));
    put<std::uint32_t>(fr, 16, static_cast<std::uint32_t>(payloadN));
    // The CRC covers the frame fields as well as the payload, so a
    // corrupted record/byte count is itself detectable -- the reader
    // must never size a buffer from an unverified length.
    put<std::uint32_t>(fr, 20, crc32(fr, 20, crc32(payload, payloadN)));
    if (std::fwrite(fr, 1, sizeof(fr), f_) != sizeof(fr) ||
        (payloadN != 0 &&
         std::fwrite(payload, 1, payloadN, f_) != payloadN))
        fatal("cannot append trace chunk to '" + tmpPath_ + "'");
    bytesWritten_ += kFrameBytes + payloadN;
    totalRecords_ += n;
    ++totalChunks_;
    recs_.clear();
    events_.clear();
}

bool
TraceWriter::finalize(const ExecProfile& exec, std::string* err)
{
    ensure(!finalized_, "trace already finalized");
    flushChunk();

    // Footer: magic, valid flag, elapsed, per-proc counter rows, CRC.
    std::vector<std::uint8_t> ft(4 + 1 + 3 + 8, 0);
    put<std::uint32_t>(ft.data(), 0, kFooterMagic);
    ft[4] = exec.valid ? 1 : 0;
    put<std::uint64_t>(ft.data(), 8, exec.elapsed);
    ensure(exec.procs.size() ==
               static_cast<std::size_t>(meta_.nprocs),
           "exec profile row count != nprocs");
    for (const ExecProfile::Row& row : exec.procs)
        for (std::uint64_t v : row) {
            std::size_t off = ft.size();
            ft.resize(off + 8);
            put<std::uint64_t>(ft.data(), off, v);
        }
    {
        std::size_t off = ft.size();
        ft.resize(off + 4);
        put<std::uint32_t>(ft.data(), off, crc32(ft.data(), off));
    }
    std::uint8_t h[kHeaderBytes];
    buildHeader(h, meta_, totalRecords_, totalSyncs_, totalChunks_,
                bytesWritten_, /*finalized=*/true,
                static_cast<std::uint32_t>(ft.size()));
    auto fail = [&](const char* what) {
        if (err != nullptr)
            *err = std::string(what) + " '" + tmpPath_ + "'";
        return false;
    };
    if (std::fwrite(ft.data(), 1, ft.size(), f_) != ft.size())
        return fail("cannot write trace footer to");
    if (std::fseek(f_, 0, SEEK_SET) != 0 ||
        std::fwrite(h, 1, sizeof(h), f_) != sizeof(h))
        return fail("cannot rewrite trace header of");
    if (std::fclose(f_) != 0) {
        f_ = nullptr;
        return fail("cannot close trace file");
    }
    f_ = nullptr;
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0)
        return fail("cannot publish trace file");
    finalized_ = true;
    return true;
}

// ---------------------------------------------------------------------
// TraceReader.

std::unique_ptr<TraceReader>
TraceReader::open(const std::string& path, std::string* err)
{
    auto fail = [&](const std::string& what) {
        if (err != nullptr)
            *err = "trace '" + path + "': " + what;
        return nullptr;
    };
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open (" +
                    std::string(std::strerror(errno)) + ")");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return fail("not a regular file");
    }
    if (st.st_size < static_cast<off_t>(kHeaderBytes)) {
        ::close(fd);
        return fail("truncated (shorter than the header)");
    }
    void* m = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                     PROT_READ, MAP_PRIVATE, fd, 0);
    if (m == MAP_FAILED) {
        ::close(fd);
        return fail("mmap failed");
    }
    std::unique_ptr<TraceReader> rd(new TraceReader);
    rd->data_ = static_cast<const std::uint8_t*>(m);
    rd->size_ = static_cast<std::size_t>(st.st_size);
    rd->fd_ = fd;
    std::string why;
    if (!rd->parseHeaderAndIndex(&why))
        return fail(why);
    return rd;
}

TraceReader::~TraceReader()
{
    if (data_ != nullptr)
        ::munmap(const_cast<std::uint8_t*>(data_), size_);
    if (fd_ >= 0)
        ::close(fd_);
}

bool
TraceReader::parseHeaderAndIndex(std::string* err)
{
    const std::uint8_t* h = data_;
    if (std::memcmp(h, kMagic, 8) != 0) {
        *err = "bad magic (not a splash2 trace)";
        return false;
    }
    const auto version = get<std::uint32_t>(h, 8);
    if (version != kFormatVersion) {
        *err = "format version " + std::to_string(version) +
               " (this build reads version " +
               std::to_string(kFormatVersion) + "); re-record the trace";
        return false;
    }
    if (get<std::uint32_t>(h, 12) != kHeaderBytes) {
        *err = "unexpected header size";
        return false;
    }
    if (get<std::uint32_t>(h, 124) != crc32(h, 124)) {
        *err = "header CRC mismatch (corrupted file)";
        return false;
    }
    if (h[112] != 1) {
        *err = "recording was never finalized (aborted run?)";
        return false;
    }
    char app[kAppBytes];
    std::memcpy(app, h + 16, kAppBytes);
    app[kAppBytes - 1] = '\0';
    meta_.app = app;
    meta_.nprocs = static_cast<int>(get<std::uint32_t>(h, 32));
    meta_.seed = get<std::uint32_t>(h, 36);
    meta_.scale = get<double>(h, 40);
    meta_.n = static_cast<long>(get<std::int64_t>(h, 48));
    meta_.iters = static_cast<long>(get<std::int64_t>(h, 56));
    meta_.aux = static_cast<long>(get<std::int64_t>(h, 64));
    meta_.quantum = get<std::uint64_t>(h, 72);
    totalRecords_ = get<std::uint64_t>(h, 80);
    totalSyncs_ = get<std::uint64_t>(h, 88);
    totalChunks_ = get<std::uint64_t>(h, 96);
    const auto footerBytes = get<std::uint32_t>(h, 116);
    if (meta_.nprocs < 1 || meta_.nprocs > kMaxProcs) {
        *err = "processor count out of range";
        return false;
    }
    chunkOffset_ = kHeaderBytes;

    // Walk the chunk frames to find and pre-validate the footer
    // position (payload CRCs are checked during replay/verify).
    std::size_t off = chunkOffset_;
    for (std::uint64_t c = 0; c < totalChunks_; ++c) {
        if (size_ - off < kFrameBytes) {
            *err = "truncated at chunk " + std::to_string(c);
            return false;
        }
        const std::uint8_t* fr = data_ + off;
        if (get<std::uint32_t>(fr, 0) != kChunkMagic) {
            *err = "bad chunk magic at chunk " + std::to_string(c);
            return false;
        }
        const auto payloadN = get<std::uint32_t>(fr, 16);
        if (size_ - off - kFrameBytes < payloadN) {
            *err = "truncated payload at chunk " + std::to_string(c);
            return false;
        }
        off += kFrameBytes + payloadN;
    }
    const std::size_t kFooterFixed = 4 + 1 + 3 + 8;
    const std::size_t wantFooter =
        kFooterFixed +
        static_cast<std::size_t>(meta_.nprocs) * ExecProfile::kFields *
            8 +
        4;
    if (footerBytes != wantFooter || size_ - off != footerBytes) {
        *err = "footer size mismatch (truncated or corrupted)";
        return false;
    }
    const std::uint8_t* ft = data_ + off;
    if (get<std::uint32_t>(ft, 0) != kFooterMagic) {
        *err = "bad footer magic";
        return false;
    }
    if (get<std::uint32_t>(ft, footerBytes - 4) !=
        crc32(ft, footerBytes - 4)) {
        *err = "footer CRC mismatch (corrupted file)";
        return false;
    }
    exec_.valid = ft[4] != 0;
    exec_.elapsed = get<std::uint64_t>(ft, 8);
    exec_.procs.resize(static_cast<std::size_t>(meta_.nprocs));
    std::size_t fo = kFooterFixed;
    for (auto& row : exec_.procs)
        for (auto& v : row) {
            v = get<std::uint64_t>(ft, fo);
            fo += 8;
        }
    placement_.reset(meta_.nprocs);
    return true;
}

bool
TraceReader::replay(RefSink* sink, std::string* err)
{
    auto fail = [&](std::uint64_t chunk, const std::string& what) {
        if (err != nullptr)
            *err = "trace chunk " + std::to_string(chunk) + ": " + what;
        return false;
    };
    placement_.reset(meta_.nprocs);
    std::vector<std::vector<Addr>> addrTbl(
        static_cast<std::size_t>(meta_.nprocs),
        std::vector<Addr>(kAddrSlots, 0));
    std::vector<Addr> lastAddr(
        static_cast<std::size_t>(meta_.nprocs), 0);
    std::vector<Tick> lastLtime(
        static_cast<std::size_t>(meta_.nprocs), 0);
    // Per-chunk scratch, kept in grouped (per-processor) order so
    // every decode pass writes sequentially: the chunk is large
    // enough that scattering whole records into stream order would
    // stream the scratch through memory once per column.  Stream
    // order is reconstituted during delivery by walking the run list
    // with one cursor per processor; the type/atomic bitmaps and the
    // size bit-planes are read directly from the encoded chunk at
    // that point rather than materialized.
    const auto np = static_cast<std::size_t>(meta_.nprocs);
    std::vector<std::vector<Addr>> addrBy(np);
    std::vector<std::vector<Tick>> ltimeBy(np);
    std::vector<std::uint32_t> cnt(np);
    std::vector<std::uint32_t> cur(np);
    std::vector<std::uint64_t> gbase(np);
    std::vector<std::pair<std::int16_t, std::uint32_t>> streamRuns;
    std::vector<std::int32_t> sizeStream;  // RLE fallback only
    std::vector<std::uint8_t> raw;
    std::uint64_t seenRecords = 0;
    std::uint64_t seenSyncs = 0;

    std::size_t off = chunkOffset_;
    for (std::uint64_t c = 0; c < totalChunks_; ++c) {
        const std::uint8_t* fr = data_ + off;
        const auto nRecs = get<std::uint32_t>(fr, 4);
        const auto nEvents = get<std::uint32_t>(fr, 8);
        const auto encBytes = get<std::uint32_t>(fr, 12);
        const auto payloadN = get<std::uint32_t>(fr, 16);
        const auto crc = get<std::uint32_t>(fr, 20);
        const std::uint8_t* payload = fr + kFrameBytes;
        off += kFrameBytes + payloadN;
        if (crc32(fr, 20, crc32(payload, payloadN)) != crc)
            return fail(c, "chunk CRC mismatch (corrupted file)");
        // Defense in depth behind the CRC: the counts must also be
        // consistent with the (header-CRC-protected) totals and with
        // the encoder's per-item output ceiling, so no buffer is ever
        // sized from an implausible length field.
        if (seenRecords + nRecs > totalRecords_)
            return fail(c, "record count exceeds the header total");
        if (encBytes > kMaxEncPerItem *
                               (std::uint64_t(nRecs) + nEvents) +
                           64)
            return fail(c, "encoded size exceeds its count bound");
        seenRecords += nRecs;
        const std::uint8_t* enc = payload;
        if (payloadN != encBytes) {  // compressed chunk
            raw.resize(encBytes);
            if (!lzDecompress(payload, payloadN, raw.data(), encBytes))
                return fail(c, "undecodable compressed payload");
            enc = raw.data();
        }
        if (sink == nullptr)
            continue;  // verify-only walk

        const std::uint8_t* p = enc;
        const std::uint8_t* end = enc + encBytes;
        auto truncated = [&] { return fail(c, "undecodable column"); };
        std::uint64_t v = 0;

        // Column 1: processor runs -- the stream-order walk for
        // delivery, plus per-processor record counts sizing the
        // grouped scratch below.
        streamRuns.clear();
        std::fill(cnt.begin(), cnt.end(), 0u);
        if (!getVarint(&p, end, &v))
            return truncated();
        std::uint64_t fill = 0;
        for (std::uint64_t r = 0; r < v; ++r) {
            std::uint64_t proc = 0, len = 0;
            if (!getVarint(&p, end, &proc) ||
                !getVarint(&p, end, &len))
                return truncated();
            const auto id = unzigzag(proc);
            if (id < 0 || id >= meta_.nprocs || len == 0 ||
                fill + len > nRecs)
                return fail(c, "processor run out of range");
            streamRuns.push_back({static_cast<std::int16_t>(id),
                                  static_cast<std::uint32_t>(len)});
            cnt[static_cast<std::size_t>(id)] +=
                static_cast<std::uint32_t>(len);
            fill += len;
        }
        if (fill != nRecs)
            return fail(c, "processor runs do not cover the chunk");
        for (std::size_t pi = 0; pi < np; ++pi)
            gbase[pi] = pi == 0 ? 0 : gbase[pi - 1] + cnt[pi - 1];
        // Columns 2+3: type/atomic bitmaps, read during delivery.
        const std::size_t bmBytes = (std::size_t(nRecs) + 7) / 8;
        if (static_cast<std::size_t>(end - p) < 2 * bmBytes)
            return truncated();
        const std::uint8_t* bmType = p;
        const std::uint8_t* bmAtomic = p + bmBytes;
        p += 2 * bmBytes;
        // Column 4: access sizes -- flag byte, then either a size
        // dictionary + two index bit-planes in grouped order, or
        // explicit runs (mirrors the encoder).
        if (p == end)
            return truncated();
        const std::uint8_t sizeFlag = *p++;
        std::int32_t szDict[4] = {0, 0, 0, 0};
        unsigned szDictN = 0;
        const std::uint8_t* szbm = nullptr;
        if (sizeFlag == kSizePlanes) {
            if (p == end)
                return truncated();
            szDictN = *p++;
            if (szDictN > 4 || (szDictN == 0 && nRecs != 0))
                return fail(c, "size dictionary out of range");
            for (unsigned d = 0; d < szDictN; ++d) {
                if (!getVarint(&p, end, &v))
                    return truncated();
                szDict[d] = static_cast<std::int32_t>(unzigzag(v));
            }
            if (static_cast<std::size_t>(end - p) < 2 * bmBytes)
                return truncated();
            szbm = p;
            p += 2 * bmBytes;
            // Validate the whole plane pair up front (word-wise: an
            // index >= dictN is a specific bit pattern), so delivery
            // can read indices unchecked.
            if (szDictN < 4) {
                std::uint64_t bad = 0;
                for (std::size_t b = 0; b < bmBytes; ++b) {
                    const std::uint8_t lo = szbm[b];
                    const std::uint8_t hi = szbm[bmBytes + b];
                    std::uint8_t w = 0;
                    if (szDictN <= 1)
                        w = static_cast<std::uint8_t>(lo | hi);
                    else if (szDictN == 2)
                        w = hi;
                    else  // 3: only index 3 (both bits) is invalid
                        w = static_cast<std::uint8_t>(lo & hi);
                    if (b == bmBytes - 1 && nRecs % 8 != 0)
                        w &= static_cast<std::uint8_t>(
                            (1u << (nRecs % 8)) - 1);
                    bad |= w;
                }
                if (bad != 0)
                    return fail(c,
                                "size index outside the dictionary");
            }
        } else if (sizeFlag == kSizeRuns) {
            if (!getVarint(&p, end, &v))
                return truncated();
            sizeStream.resize(nRecs);
            fill = 0;
            for (std::uint64_t r = 0; r < v; ++r) {
                std::uint64_t size = 0, len = 0;
                if (!getVarint(&p, end, &size) ||
                    !getVarint(&p, end, &len))
                    return truncated();
                if (len == 0 || fill + len > nRecs)
                    return fail(c, "size run out of range");
                for (std::uint64_t i = 0; i < len; ++i)
                    sizeStream[fill + i] =
                        static_cast<std::int32_t>(unzigzag(size));
                fill += len;
            }
            if (fill != nRecs)
                return fail(c, "size runs do not cover the chunk");
        } else {
            return fail(c, "unknown size-column encoding");
        }
        // Column 5: mode byte, then either plain per-processor deltas
        // or a selector bit-plane plus deltas against the selected
        // predictor (previous address or page-keyed table entry),
        // replaying exactly the prediction state the encoder
        // maintained.  State updates are mode-independent.  The
        // one-byte varint case dominates, so it is inlined ahead of
        // the general decode.
        if (p == end)
            return truncated();
        const std::uint8_t addrMode = *p++;
        if (addrMode != kAddrPlain && addrMode != kAddrPred)
            return fail(c, "unknown address-column encoding");
        const std::uint8_t* selbm = nullptr;
        if (addrMode == kAddrPred) {
            if (static_cast<std::size_t>(end - p) < bmBytes)
                return truncated();
            selbm = p;
            p += bmBytes;
        }
        std::uint64_t ag = 0;
        for (std::size_t pi = 0; pi < np; ++pi) {
            Addr* tbl = addrTbl[pi].data();
            Addr last = lastAddr[pi];
            addrBy[pi].resize(cnt[pi]);
            Addr* out = addrBy[pi].data();
            if (selbm == nullptr) {
                // Plain mode: no selector plane, but the predictor
                // table still tracks the stream so a later chunk may
                // switch modes.
                for (std::uint32_t k = 0; k < cnt[pi]; ++k) {
                    if (p < end && *p < 0x80)
                        v = *p++;
                    else if (!getVarint(&p, end, &v))
                        return truncated();
                    const std::size_t slot =
                        (last >> kPageShift) & (kAddrSlots - 1);
                    const Addr a =
                        last + static_cast<Addr>(unzigzag(v));
                    out[k] = a;
                    tbl[slot] = a;
                    last = a;
                }
            } else {
                for (std::uint32_t k = 0; k < cnt[pi]; ++k, ++ag) {
                    if (p < end && *p < 0x80)
                        v = *p++;
                    else if (!getVarint(&p, end, &v))
                        return truncated();
                    const std::size_t slot =
                        (last >> kPageShift) & (kAddrSlots - 1);
                    const Addr base =
                        (selbm[ag / 8] & (1u << (ag % 8))) != 0
                            ? tbl[slot]
                            : last;
                    const Addr a =
                        base + static_cast<Addr>(unzigzag(v));
                    out[k] = a;
                    tbl[slot] = a;
                    last = a;
                }
            }
            lastAddr[pi] = last;
        }
        // Column 6: logical-time deltas, grouped by processor -- a
        // per-chunk delta dictionary plus two index bit-planes over
        // the grouped order; index 3 escapes to a varint appended
        // after the planes unless the dictionary is exact with four
        // entries (mirrors the encoder).
        if (p == end)
            return truncated();
        const unsigned ltDictN = *p++;
        if (ltDictN > 4 || (ltDictN == 0 && nRecs != 0))
            return fail(c, "ltime dictionary out of range");
        std::int64_t ltDict[4] = {0, 0, 0, 0};
        for (unsigned d = 0; d < ltDictN; ++d) {
            if (!getVarint(&p, end, &v))
                return truncated();
            ltDict[d] = unzigzag(v);
        }
        if (static_cast<std::size_t>(end - p) < 2 * bmBytes)
            return truncated();
        const std::uint8_t* ltbm = p;
        p += 2 * bmBytes;
        std::uint64_t g = 0;
        for (std::size_t pi = 0; pi < np; ++pi) {
            Tick acc = lastLtime[pi];
            ltimeBy[pi].resize(cnt[pi]);
            Tick* out = ltimeBy[pi].data();
            for (std::uint32_t k = 0; k < cnt[pi]; ++k, ++g) {
                const unsigned idx =
                    ((ltbm[g / 8] >> (g % 8)) & 1u) |
                    (((ltbm[bmBytes + g / 8] >> (g % 8)) & 1u) << 1);
                if (idx < ltDictN) {
                    acc += static_cast<Tick>(ltDict[idx]);
                } else if (idx == 3) {  // escape
                    if (p < end && *p < 0x80)
                        v = *p++;
                    else if (!getVarint(&p, end, &v))
                        return truncated();
                    acc += static_cast<Tick>(unzigzag(v));
                } else {
                    return fail(c,
                                "ltime index outside the "
                                "dictionary");
                }
                out[k] = acc;
            }
            lastLtime[pi] = acc;
        }
        // Column 7: events, delivered interleaved with the records.
        if (!getVarint(&p, end, &v) || v != nEvents)
            return fail(c, "event count mismatch");
        std::uint64_t evPos = 0;
        std::uint64_t nextRec = 0;
        std::size_t runIdx = 0;
        std::uint32_t runOff = 0;
        std::fill(cur.begin(), cur.end(), 0u);
        auto deliverUpTo = [&](std::uint64_t pos) {
            if (pos > nRecs)
                return false;
            while (nextRec < pos) {
                const auto [rp, rlen] = streamRuns[runIdx];
                const auto pi = static_cast<std::size_t>(rp);
                const auto take = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(rlen - runOff,
                                            pos - nextRec));
                const Addr* pa = addrBy[pi].data() + cur[pi];
                const Tick* pt = ltimeBy[pi].data() + cur[pi];
                std::uint64_t gi = gbase[pi] + cur[pi];
                std::uint64_t si = nextRec;
                AccessRec r;
                r.proc = rp;
                for (std::uint32_t k = 0; k < take;
                     ++k, ++si, ++gi) {
                    r.addr = pa[k];
                    r.ltime = pt[k];
                    // One-entry dictionaries dominate (most apps
                    // issue a single access width), so skip the
                    // plane reads when the size is a constant.
                    r.size =
                        szbm != nullptr
                            ? (szDictN == 1
                                   ? szDict[0]
                                   : szDict
                                         [((szbm[gi / 8] >>
                                            (gi % 8)) &
                                           1u) |
                                          (((szbm[bmBytes + gi / 8] >>
                                             (gi % 8)) &
                                            1u)
                                           << 1)])
                            : sizeStream[si];
                    r.type = (bmType[si / 8] & (1u << (si % 8))) != 0
                                 ? AccessType::Write
                                 : AccessType::Read;
                    r.flags =
                        (bmAtomic[si / 8] & (1u << (si % 8))) != 0
                            ? AccessRec::kAtomic
                            : 0;
                    sink->access(r);
                }
                cur[pi] += take;
                runOff += take;
                nextRec += take;
                if (runOff == rlen) {
                    ++runIdx;
                    runOff = 0;
                }
            }
            return true;
        };
        for (std::uint64_t e = 0; e < nEvents; ++e) {
            if (!getVarint(&p, end, &v))
                return truncated();
            evPos += v;
            if (!deliverUpTo(evPos))
                return fail(c, "event position out of range");
            if (p >= end)
                return truncated();
            const std::uint8_t kind = *p++;
            if (kind == kEvSync) {
                if (p >= end)
                    return truncated();
                const std::uint8_t packed = *p++;
                SyncRec s;
                s.op = (packed & 1) ? SyncOp::Release : SyncOp::Acquire;
                const unsigned prim = packed >> 1;
                if (prim > static_cast<unsigned>(SyncPrim::Flag))
                    return fail(c, "sync primitive out of range");
                s.prim = static_cast<SyncPrim>(prim);
                std::uint64_t obj = 0, proc = 0, dt = 0;
                if (!getVarint(&p, end, &obj) ||
                    !getVarint(&p, end, &proc) ||
                    !getVarint(&p, end, &dt))
                    return truncated();
                s.obj = static_cast<std::uint32_t>(obj);
                const auto id = unzigzag(proc);
                if (id < 0 || id >= meta_.nprocs)
                    return fail(c, "sync processor out of range");
                s.proc = static_cast<std::int16_t>(id);
                const auto pi = static_cast<std::size_t>(id);
                lastLtime[pi] += static_cast<Tick>(unzigzag(dt));
                s.ltime = lastLtime[pi];
                sink->sync(s);
                ++seenSyncs;
            } else if (kind == kEvReset) {
                sink->resetStats();
            } else if (kind == kEvPlace) {
                std::uint64_t addr = 0, bytes = 0, home = 0;
                if (!getVarint(&p, end, &addr) ||
                    !getVarint(&p, end, &bytes) ||
                    !getVarint(&p, end, &home))
                    return truncated();
                PlaceRec pr;
                pr.addr = static_cast<Addr>(addr);
                pr.bytes = bytes;
                pr.home = static_cast<ProcId>(unzigzag(home));
                // Quiesce consumers before the resolver mutates,
                // exactly like the live runtime's placement observer.
                sink->streamBarrier();
                placement_.apply(pr.addr, pr.bytes, pr.home);
                sink->place(pr);
            } else {
                return fail(c, "unknown event kind " +
                                   std::to_string(kind));
            }
        }
        if (!deliverUpTo(nRecs))
            return fail(c, "record decode out of range");
        if (p != end)
            return fail(c, "trailing bytes after the event column");
    }
    if (seenRecords != totalRecords_ ||
        (sink != nullptr && seenSyncs != totalSyncs_))
        return fail(totalChunks_,
                    "record/sync totals disagree with the header");
    return true;
}

// ---------------------------------------------------------------------
// Store helpers.

namespace tracestore {

std::string
pathFor(const std::string& dir, const TraceMeta& m)
{
    struct stat st{};
    if (::stat(dir.c_str(), &st) == 0 && S_ISREG(st.st_mode))
        return dir;  // direct single-file use
    std::string p = dir;
    if (!p.empty() && p.back() != '/')
        p.push_back('/');
    return p + m.fileName();
}

std::unique_ptr<TraceReader>
openFor(const std::string& dirOrFile, const TraceMeta& m,
        std::string* err)
{
    const std::string path = pathFor(dirOrFile, m);
    std::unique_ptr<TraceReader> rd = TraceReader::open(path, err);
    if (rd == nullptr) {
        if (err != nullptr && path != dirOrFile)
            *err += " -- no recorded trace for " + m.describe() +
                    "; record one with --record " + dirOrFile;
        return nullptr;
    }
    if (rd->meta() != m) {
        if (err != nullptr)
            *err = "trace '" + path + "' records " +
                   rd->meta().describe() + " but this run needs " +
                   m.describe();
        return nullptr;
    }
    return rd;
}

bool
haveTrace(const std::string& dir, const TraceMeta& m)
{
    std::string err;
    return openFor(dir, m, &err) != nullptr;
}

} // namespace tracestore

} // namespace splash::sim
