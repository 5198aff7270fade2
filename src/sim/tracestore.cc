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

namespace {

/** Writes @p v as LEB128 at @p p; returns the byte after it. */
std::uint8_t*
writeVarint(std::uint8_t* p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

} // namespace

void
putVarint(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    std::uint8_t b[10];
    out.insert(out.end(), b, writeVarint(b, v));
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

/** Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][i]
 *  is the CRC of byte i followed by k zero bytes, so eight input bytes
 *  fold into the register with eight independent lookups. */
struct CrcTable
{
    std::uint32_t t[8][256];
    CrcTable()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (int k = 1; k < 8; ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
};

std::uint32_t
le32(const std::uint8_t* p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void* data, std::size_t n, std::uint32_t seed)
{
    static const CrcTable tbl;
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = le32(p) ^ c;
        const std::uint32_t hi = le32(p + 4);
        c = tbl.t[7][lo & 0xff] ^ tbl.t[6][(lo >> 8) & 0xff] ^
            tbl.t[5][(lo >> 16) & 0xff] ^ tbl.t[4][lo >> 24] ^
            tbl.t[3][hi & 0xff] ^ tbl.t[2][(hi >> 8) & 0xff] ^
            tbl.t[1][(hi >> 16) & 0xff] ^ tbl.t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = tbl.t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace tracecodec

using namespace tracecodec;

// ---------------------------------------------------------------------
// File-format constants.

namespace {

constexpr char kMagic[8] = {'S', '2', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::uint32_t kHeaderBytes = 128;
constexpr std::uint32_t kChunkMagic = 0x4b433253u;   // "S2CK"
constexpr std::uint32_t kFooterMagic = 0x54463253u;  // "S2FT"
constexpr std::size_t kAppBytes = 16;
constexpr std::size_t kFrameBytes = 20;

// Lead byte of a payload item.  A record uses the low five bits; the
// next two are reserved and must be zero.  The high bit marks an
// event, whose kind is in the low bits.
constexpr std::uint8_t kWrite = 1u << 0;
constexpr std::uint8_t kAtomic = 1u << 1;
constexpr std::uint8_t kNewProc = 1u << 2;  ///< varint processor follows
constexpr std::uint8_t kNewSize = 1u << 3;  ///< varint size follows
constexpr std::uint8_t kNewStep = 1u << 4;  ///< zigzag clock step follows
constexpr std::uint8_t kReserved = 3u << 5;
constexpr std::uint8_t kEvent = 1u << 7;

constexpr std::uint8_t kEvSync = kEvent | 0;
constexpr std::uint8_t kEvReset = kEvent | 1;
constexpr std::uint8_t kEvPlace = kEvent | 2;

/** Upper bound on the encoded bytes of one item: a record with every
 *  field present (lead byte + four varints), which is wider than any
 *  event (kind + packed op + three varints). */
constexpr std::size_t kMaxItemBytes = 1 + 4 * 10;

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
    procs_.resize(static_cast<std::size_t>(meta_.nprocs));
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

std::uint8_t*
TraceWriter::room()
{
    if (buf_.size() - len_ < kMaxItemBytes)
        buf_.resize(2 * buf_.size() + 4096);
    return buf_.data() + len_;
}

void
TraceWriter::access(const AccessRec& r)
{
    std::uint8_t* const lead = room();
    std::uint8_t* p = lead + 1;
    std::uint8_t f = r.type == AccessType::Write ? kWrite : 0;
    if (r.atomic())
        f |= kAtomic;
    ensure(r.proc >= 0 && r.proc < meta_.nprocs,
           "trace record processor out of range");
    if (r.proc != cur_) {
        f |= kNewProc;
        p = writeVarint(p, static_cast<std::uint64_t>(r.proc));
        cur_ = r.proc;
    }
    ProcState& s = procs_[static_cast<std::size_t>(r.proc)];
    if (r.size != s.size) {
        f |= kNewSize;
        p = writeVarint(p, static_cast<std::uint32_t>(r.size));
        s.size = r.size;
    }
    const Tick step = r.ltime - s.clock;
    if (step != s.step) {
        f |= kNewStep;
        p = writeVarint(p, zigzag(static_cast<std::int64_t>(step)));
        s.step = step;
    }
    p = writeVarint(p, zigzag(static_cast<std::int64_t>(r.addr - s.addr)));
    s.addr = r.addr;
    s.clock = r.ltime;
    *lead = f;
    len_ = static_cast<std::size_t>(p - buf_.data());
    if (++chunkRecs_ == chunkRecords_)
        flushChunk();
}

void
TraceWriter::sync(const SyncRec& r)
{
    ensure(r.proc >= 0 && r.proc < meta_.nprocs,
           "trace sync processor out of range");
    std::uint8_t* p = room();
    *p++ = kEvSync;
    *p++ = static_cast<std::uint8_t>((r.op == SyncOp::Release ? 1 : 0) |
                                     (static_cast<unsigned>(r.prim) << 1));
    p = writeVarint(p, r.obj);
    p = writeVarint(p, static_cast<std::uint64_t>(r.proc));
    // The edge's clock is a delta on the same per-processor clock the
    // records use, so the next record's step is measured from it.
    ProcState& s = procs_[static_cast<std::size_t>(r.proc)];
    p = writeVarint(p, zigzag(static_cast<std::int64_t>(r.ltime - s.clock)));
    s.clock = r.ltime;
    len_ = static_cast<std::size_t>(p - buf_.data());
    ++chunkEvents_;
    ++totalSyncs_;
}

void
TraceWriter::resetStats()
{
    *room() = kEvReset;
    ++len_;
    ++chunkEvents_;
}

void
TraceWriter::place(const PlaceRec& r)
{
    ensure(r.home >= 0 && r.home < meta_.nprocs,
           "trace placement home out of range");
    std::uint8_t* p = room();
    *p++ = kEvPlace;
    p = writeVarint(p, r.addr);
    p = writeVarint(p, r.bytes);
    p = writeVarint(p, static_cast<std::uint64_t>(r.home));
    len_ = static_cast<std::size_t>(p - buf_.data());
    ++chunkEvents_;
}

void
TraceWriter::flushChunk()
{
    if (chunkRecs_ == 0 && chunkEvents_ == 0)
        return;
    ensure(len_ <= UINT32_MAX, "trace chunk payload exceeds 4 GiB");
    std::uint8_t fr[kFrameBytes];
    put<std::uint32_t>(fr, 0, kChunkMagic);
    put<std::uint32_t>(fr, 4, static_cast<std::uint32_t>(chunkRecs_));
    put<std::uint32_t>(fr, 8, chunkEvents_);
    put<std::uint32_t>(fr, 12, static_cast<std::uint32_t>(len_));
    // The CRC covers the frame fields as well as the payload, so a
    // corrupted record/byte count is itself detectable.
    put<std::uint32_t>(fr, 16, crc32(fr, 16, crc32(buf_.data(), len_)));
    if (std::fwrite(fr, 1, sizeof(fr), f_) != sizeof(fr) ||
        std::fwrite(buf_.data(), 1, len_, f_) != len_)
        fatal("cannot append trace chunk to '" + tmpPath_ + "'");
    bytesWritten_ += kFrameBytes + len_;
    totalRecords_ += chunkRecs_;
    ++totalChunks_;
    len_ = 0;
    chunkRecs_ = 0;
    chunkEvents_ = 0;
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
    // position (payload CRCs are checked during replay).
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
        const auto payloadN = get<std::uint32_t>(fr, 12);
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
TraceReader::replay(const std::vector<RefSink*>& sinks, std::string* err)
{
    auto fail = [&](std::uint64_t chunk, const std::string& what) {
        if (err != nullptr)
            *err = "trace chunk " + std::to_string(chunk) + ": " + what;
        return false;
    };
    placement_.reset(meta_.nprocs);
    const auto np = static_cast<std::uint64_t>(meta_.nprocs);
    std::vector<ProcState> procs(np);
    ProcState* st = nullptr;  // the current processor's state
    std::int16_t cur = -1;    // and its id
    std::vector<AccessRec> run(kRunRecords);
    std::size_t n = 0;  // records decoded into run, not yet delivered
    auto deliver = [&] {
        if (n == 0)
            return;
        for (RefSink* s : sinks)
            s->accessBatch(run.data(), n);
        n = 0;
    };
    std::uint64_t seenRecords = 0;
    std::uint64_t seenSyncs = 0;

    std::size_t off = chunkOffset_;
    for (std::uint64_t c = 0; c < totalChunks_; ++c) {
        const std::uint8_t* fr = data_ + off;
        const auto nRecs = get<std::uint32_t>(fr, 4);
        const auto nEvents = get<std::uint32_t>(fr, 8);
        const auto payloadN = get<std::uint32_t>(fr, 12);
        const std::uint8_t* p = fr + kFrameBytes;
        const std::uint8_t* const end = p + payloadN;
        off += kFrameBytes + payloadN;
        if (crc32(fr, 16, crc32(p, payloadN)) != get<std::uint32_t>(fr, 16))
            return fail(c, "chunk CRC mismatch (corrupted file)");
        auto truncated = [&] { return fail(c, "truncated item"); };
        std::uint64_t recs = 0;
        std::uint64_t events = 0;
        std::uint64_t v = 0;
        while (p < end) {
            const std::uint8_t f = *p++;
            if ((f & kEvent) == 0) {
                if ((f & kReserved) != 0)
                    return fail(c, "reserved record flag set");
                if ((f & kNewProc) != 0) {
                    if (!getVarint(&p, end, &v) || v >= np)
                        return fail(c, "record processor out of range");
                    cur = static_cast<std::int16_t>(v);
                    st = &procs[v];
                } else if (st == nullptr) {
                    return fail(c, "first record names no processor");
                }
                if ((f & kNewSize) != 0) {
                    if (!getVarint(&p, end, &v) || v > INT32_MAX)
                        return fail(c, "record size out of range");
                    st->size = static_cast<std::int32_t>(v);
                }
                if ((f & kNewStep) != 0) {
                    if (!getVarint(&p, end, &v))
                        return truncated();
                    st->step = static_cast<Tick>(unzigzag(v));
                }
                // One-byte address deltas dominate: inline them.
                if (p < end && *p < 0x80)
                    v = *p++;
                else if (!getVarint(&p, end, &v))
                    return truncated();
                st->addr += static_cast<Addr>(unzigzag(v));
                st->clock += st->step;
                AccessRec& r = run[n];
                r.addr = st->addr;
                r.ltime = st->clock;
                r.size = st->size;
                r.proc = cur;
                r.type = (f & kWrite) != 0 ? AccessType::Write
                                           : AccessType::Read;
                r.flags = (f & kAtomic) != 0 ? AccessRec::kAtomic : 0;
                if (++n == kRunRecords)
                    deliver();
                ++recs;
                continue;
            }
            deliver();  // as the live runtime drains its ring first
            ++events;
            if (f == kEvSync) {
                if (p == end)
                    return truncated();
                const std::uint8_t packed = *p++;
                const unsigned prim = packed >> 1;
                if (prim > static_cast<unsigned>(SyncPrim::Flag))
                    return fail(c, "sync primitive out of range");
                std::uint64_t obj = 0, proc = 0, dt = 0;
                if (!getVarint(&p, end, &obj) ||
                    !getVarint(&p, end, &proc) ||
                    !getVarint(&p, end, &dt))
                    return truncated();
                if (proc >= np || obj > UINT32_MAX)
                    return fail(c, "sync field out of range");
                SyncRec s;
                s.op = (packed & 1) ? SyncOp::Release : SyncOp::Acquire;
                s.prim = static_cast<SyncPrim>(prim);
                s.obj = static_cast<std::uint32_t>(obj);
                s.proc = static_cast<std::int16_t>(proc);
                procs[proc].clock += static_cast<Tick>(unzigzag(dt));
                s.ltime = procs[proc].clock;
                for (RefSink* sink : sinks)
                    sink->sync(s);
                ++seenSyncs;
            } else if (f == kEvReset) {
                for (RefSink* sink : sinks)
                    sink->resetStats();
            } else if (f == kEvPlace) {
                std::uint64_t addr = 0, bytes = 0, home = 0;
                if (!getVarint(&p, end, &addr) ||
                    !getVarint(&p, end, &bytes) ||
                    !getVarint(&p, end, &home))
                    return truncated();
                if (home >= np)
                    return fail(c, "placement home out of range");
                PlaceRec pr;
                pr.addr = static_cast<Addr>(addr);
                pr.bytes = bytes;
                pr.home = static_cast<ProcId>(home);
                // Quiesce consumers before the resolver mutates,
                // exactly like the live runtime's placement observer.
                for (RefSink* sink : sinks)
                    sink->streamBarrier();
                placement_.apply(pr.addr, pr.bytes, pr.home);
                for (RefSink* sink : sinks)
                    sink->place(pr);
            } else {
                return fail(c, "unknown event kind " + std::to_string(f));
            }
        }
        if (recs != nRecs || events != nEvents)
            return fail(c, "item counts disagree with the chunk frame");
        seenRecords += recs;
    }
    deliver();
    if (seenRecords != totalRecords_ || seenSyncs != totalSyncs_)
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
