// Tests for the record-once trace store: codec round-trip + fuzz
// (varint/zigzag, CRC-32), writer/reader round-trips with
// chunk-spanning records and stream-ordered events, rejection of
// truncated/corrupted/stale files (a whole-file byte-flip fuzz pass,
// and payload flips behind a re-sealed CRC that only the decoder's own
// checks can catch), store identity checks, and app-level record ->
// replay equality for a live characterization.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "../rt/run_compare.h"
#include "harness/experiment.h"
#include "rt/shared_heap.h"
#include "sim/tracestore.h"

using namespace splash;
using namespace splash::sim;
using namespace splash::sim::tracecodec;

namespace {

std::string
tempDir()
{
    static int n = 0;
    std::string d = ::testing::TempDir() + "tracestore_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(n++);
    EXPECT_EQ(::mkdir(d.c_str(), 0777), 0);
    return d;
}

std::vector<std::uint8_t>
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/** Sink that journals every delivery in order, for exact comparison
 *  against what a writer was fed. */
struct Journal final : RefSink
{
    std::vector<AccessRec> recs;
    struct Ev
    {
        std::uint64_t pos;
        char kind;  // 's'ync, 'r'eset, 'p'lace, 'b'arrier
        SyncRec sync;
        PlaceRec place;
    };
    std::vector<Ev> evs;

    void access(const AccessRec& r) override { recs.push_back(r); }
    void
    sync(const SyncRec& r) override
    {
        evs.push_back({recs.size(), 's', r, {}});
    }
    void resetStats() override { evs.push_back({recs.size(), 'r', {}, {}}); }
    void
    place(const PlaceRec& r) override
    {
        evs.push_back({recs.size(), 'p', {}, r});
    }
    void
    streamBarrier() override
    {
        evs.push_back({recs.size(), 'b', {}, {}});
    }
};

TraceMeta
testMeta(int nprocs = 4)
{
    TraceMeta m;
    m.app = "synthetic";
    m.nprocs = nprocs;
    m.scale = 0.5;
    m.n = 64;
    m.iters = 3;
    m.aux = 7;
    m.seed = 42;
    m.quantum = 250;
    return m;
}

bool
sameRec(const AccessRec& a, const AccessRec& b)
{
    return a.addr == b.addr && a.ltime == b.ltime && a.size == b.size &&
           a.proc == b.proc && a.type == b.type && a.flags == b.flags;
}

/** A deterministic pseudo-random stream with realistic structure:
 *  mostly per-proc strided runs, occasional far jumps, mixed sizes,
 *  monotone per-proc logical clocks. */
std::vector<AccessRec>
randomStream(int nprocs, int n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Addr> cursor(nprocs);
    std::vector<Tick> clock(nprocs);
    for (int p = 0; p < nprocs; ++p) {
        cursor[p] = 0x100000000ull + std::uint64_t(p) * 4096;
        clock[p] = rng() % 100;
    }
    std::vector<AccessRec> out;
    out.reserve(n);
    int p = 0;
    for (int i = 0; i < n; ++i) {
        if (rng() % 7 == 0)
            p = static_cast<int>(rng() % nprocs);
        AccessRec r;
        if (rng() % 31 == 0)
            cursor[p] = 0x100000000ull + rng() % (1u << 20);
        else
            cursor[p] += 4 + 8 * (rng() % 3);
        clock[p] += 1 + rng() % 5;
        r.addr = cursor[p];
        r.ltime = clock[p];
        r.size = 1 << (rng() % 4);
        r.proc = static_cast<std::int16_t>(p);
        r.type = rng() % 3 ? AccessType::Read : AccessType::Write;
        r.flags = rng() % 13 == 0 ? AccessRec::kAtomic : 0;
        out.push_back(r);
    }
    return out;
}

/** Two far-apart strided cursors per processor (one page per
 *  "molecule", each with a fixed partner page far away), visited in an
 *  aperiodic order so address deltas are large in both directions;
 *  clock steps are mostly 1 with a rare large one, so step changes
 *  land on both sides of chunk edges. */
std::vector<AccessRec>
twoCursorStream()
{
    std::mt19937_64 rng(23);
    std::vector<AccessRec> recs;
    constexpr int kMol = 256;
    std::array<int, kMol> perm{};
    for (int i = 0; i < kMol; ++i)
        perm[i] = (i * 167 + 13) % kMol;
    std::vector<std::array<Addr, kMol>> off(4);
    std::vector<Tick> clock(4, 0);
    for (int i = 0; i < 2000; ++i) {
        const int p = static_cast<int>(rng() % 4);
        const int mol = static_cast<int>(rng() % kMol);
        const Addr base = 0x100000000ull + std::uint64_t(p) * (1ull << 32);
        off[p][mol] += (rng() % 4 == 0) ? 8 : 0;
        const Addr pages[2] = {
            base + std::uint64_t(mol) * 4096 + off[p][mol],
            base + (1ull << 28) + std::uint64_t(perm[mol]) * 4096 +
                off[p][mol]};
        for (const Addr a : pages) {
            clock[p] += rng() % 50 == 0 ? 2 + rng() % 99 : 1;
            AccessRec r;
            r.addr = a;
            r.ltime = clock[p];
            r.size = 8;
            r.proc = static_cast<std::int16_t>(p);
            r.type = AccessType::Read;
            r.flags = 0;
            recs.push_back(r);
        }
    }
    return recs;
}

/** Record @p recs (plus synthetic events) and return the trace path. */
std::string
writeTrace(const std::string& dir, const TraceMeta& m,
           const std::vector<AccessRec>& recs, std::size_t chunkRecords,
           Journal* fed = nullptr)
{
    const std::string path = tracestore::pathFor(dir, m);
    TraceWriter w(path, m, chunkRecords);
    std::mt19937_64 rng(99);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i == recs.size() / 3) {
            w.resetStats();
            if (fed)
                fed->resetStats();
        }
        if (rng() % 17 == 0) {
            SyncRec s;
            s.obj = static_cast<std::uint32_t>(rng() % 5);
            s.proc = recs[i].proc;
            s.ltime = recs[i].ltime + 1;
            s.op = rng() % 2 ? SyncOp::Release : SyncOp::Acquire;
            s.prim = static_cast<SyncPrim>(rng() % 3);
            w.sync(s);
            if (fed)
                fed->sync(s);
        }
        if (rng() % 41 == 0) {
            PlaceRec pl;
            pl.addr = 0x100000000ull + (rng() % 16) * 65536;
            pl.bytes = 4096;
            pl.home = static_cast<ProcId>(rng() % m.nprocs);
            // Mirror the live Env: quiesce, then mutate.
            w.streamBarrier();
            w.place(pl);
            if (fed) {
                fed->streamBarrier();
                fed->place(pl);
            }
        }
        w.access(recs[i]);
        if (fed)
            fed->access(recs[i]);
    }
    ExecProfile e;
    e.valid = true;
    e.elapsed = 123456;
    for (int p = 0; p < m.nprocs; ++p) {
        ExecProfile::Row row{};
        for (int f = 0; f < ExecProfile::kFields; ++f)
            row[f] = std::uint64_t(p) * 100 + f;
        e.procs.push_back(row);
    }
    std::string err;
    EXPECT_TRUE(w.finalize(e, &err)) << err;
    return path;
}

// ---------------------------------------------------------------------
// Codec units.

TEST(Varint, BoundaryRoundTrip)
{
    const std::uint64_t cases[] = {0,
                                   1,
                                   127,
                                   128,
                                   129,
                                   16383,
                                   16384,
                                   (1ull << 32) - 1,
                                   1ull << 32,
                                   ~0ull - 1,
                                   ~0ull};
    for (std::uint64_t v : cases) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        ASSERT_LE(buf.size(), 10u);
        const std::uint8_t* p = buf.data();
        std::uint64_t got = 0;
        ASSERT_TRUE(getVarint(&p, buf.data() + buf.size(), &got));
        EXPECT_EQ(got, v);
        EXPECT_EQ(p, buf.data() + buf.size());
    }
}

TEST(Varint, TruncatedDecodeFails)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, ~0ull);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
        const std::uint8_t* p = buf.data();
        std::uint64_t got;
        EXPECT_FALSE(getVarint(&p, buf.data() + cut, &got))
            << "decode succeeded on a " << cut << "-byte prefix";
    }
    // A run of continuation bytes never terminating within 10 bytes is
    // corrupt, not an infinite loop.
    std::vector<std::uint8_t> runaway(64, 0x80);
    const std::uint8_t* p = runaway.data();
    std::uint64_t got;
    EXPECT_FALSE(getVarint(&p, runaway.data() + runaway.size(), &got));
}

TEST(Varint, ZigzagRoundTrip)
{
    const std::int64_t cases[] = {0,  1,  -1, 2, -2, 4096, -4097,
                                  INT64_MAX, INT64_MIN};
    for (std::int64_t v : cases)
        EXPECT_EQ(unzigzag(zigzag(v)), v);
    // Zigzag keeps small magnitudes small (the size argument).
    EXPECT_LT(zigzag(-3), 8u);
}

TEST(Varint, FuzzRoundTrip)
{
    std::mt19937_64 rng(7);
    std::vector<std::uint8_t> buf;
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 10000; ++i) {
        // Mix magnitudes so every encoded length occurs.
        std::uint64_t v = rng() >> (rng() % 64);
        vals.push_back(v);
        putVarint(buf, v);
    }
    const std::uint8_t* p = buf.data();
    const std::uint8_t* end = buf.data() + buf.size();
    for (std::uint64_t want : vals) {
        std::uint64_t got = 0;
        ASSERT_TRUE(getVarint(&p, end, &got));
        ASSERT_EQ(got, want);
    }
    EXPECT_EQ(p, end);
}

TEST(Crc32, KnownVectorAndSensitivity)
{
    // The canonical IEEE 802.3 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    std::vector<std::uint8_t> data(257);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    const std::uint32_t base = crc32(data.data(), data.size());
    // Chaining through the seed equals one pass at every split, so the
    // eight-byte blocks and the byte tail agree wherever they fall.
    for (std::size_t at = 0; at <= data.size(); ++at)
        EXPECT_EQ(crc32(data.data() + at, data.size() - at,
                        crc32(data.data(), at)),
                  base)
            << "split at " << at;
    for (std::size_t i = 0; i < data.size(); i += 13) {
        data[i] ^= 0x40;
        EXPECT_NE(crc32(data.data(), data.size()), base)
            << "flip at " << i << " undetected";
        data[i] ^= 0x40;
    }
}

// ---------------------------------------------------------------------
// Writer/reader round-trip.

TEST(TraceStore, RoundTripChunkSpanning)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(4);
    const auto recs = randomStream(m.nprocs, 5000, 3);
    Journal fed;
    // 64-record chunks force ~80 chunk crossings with live per-proc
    // delta state.
    const std::string path = writeTrace(dir, m, recs, 64, &fed);

    std::string err;
    auto rd = TraceReader::open(path, &err);
    ASSERT_NE(rd, nullptr) << err;
    EXPECT_EQ(rd->meta(), m);
    EXPECT_EQ(rd->records(), recs.size());
    EXPECT_TRUE(rd->exec().valid);
    EXPECT_EQ(rd->exec().elapsed, 123456u);
    ASSERT_EQ(rd->exec().procs.size(), 4u);
    EXPECT_EQ(rd->exec().procs[2][5], 205u);

    Journal got;
    ASSERT_TRUE(rd->replay(&got, &err)) << err;
    ASSERT_EQ(got.recs.size(), fed.recs.size());
    for (std::size_t i = 0; i < fed.recs.size(); ++i)
        ASSERT_TRUE(sameRec(got.recs[i], fed.recs[i])) << "record " << i;
    ASSERT_EQ(got.evs.size(), fed.evs.size());
    for (std::size_t i = 0; i < fed.evs.size(); ++i) {
        ASSERT_EQ(got.evs[i].kind, fed.evs[i].kind) << "event " << i;
        ASSERT_EQ(got.evs[i].pos, fed.evs[i].pos) << "event " << i;
        if (fed.evs[i].kind == 's') {
            EXPECT_EQ(got.evs[i].sync.obj, fed.evs[i].sync.obj);
            EXPECT_EQ(got.evs[i].sync.proc, fed.evs[i].sync.proc);
            EXPECT_EQ(got.evs[i].sync.ltime, fed.evs[i].sync.ltime);
            EXPECT_EQ(got.evs[i].sync.op, fed.evs[i].sync.op);
            EXPECT_EQ(got.evs[i].sync.prim, fed.evs[i].sync.prim);
        } else if (fed.evs[i].kind == 'p') {
            EXPECT_EQ(got.evs[i].place.addr, fed.evs[i].place.addr);
            EXPECT_EQ(got.evs[i].place.bytes, fed.evs[i].place.bytes);
            EXPECT_EQ(got.evs[i].place.home, fed.evs[i].place.home);
        }
    }
}

TEST(TraceStore, RoundTripFuzzGeometries)
{
    struct Case
    {
        TraceMeta m;
        std::vector<AccessRec> recs;
        std::size_t chunk;
    };
    std::mt19937_64 rng(17);
    std::vector<Case> cases;
    for (int iter = 0; iter < 8; ++iter) {
        TraceMeta m = testMeta(1 + static_cast<int>(rng() % 8));
        m.seed = static_cast<unsigned>(iter);
        const int n = 1 + static_cast<int>(rng() % 3000);
        const std::size_t chunk = 1 + rng() % 200;
        cases.push_back(
            {m, randomStream(m.nprocs, n, iter * 31 + 5), chunk});
    }
    cases.push_back({testMeta(4), twoCursorStream(), 512});
    for (std::size_t k = 0; k < cases.size(); ++k) {
        const Case& tc = cases[k];
        Journal fed;
        const std::string path =
            writeTrace(tempDir(), tc.m, tc.recs, tc.chunk, &fed);
        std::string err;
        auto rd = TraceReader::open(path, &err);
        ASSERT_NE(rd, nullptr) << err;
        Journal got;
        ASSERT_TRUE(rd->replay(&got, &err)) << err;
        ASSERT_EQ(got.recs.size(), fed.recs.size())
            << "case " << k << " chunk " << tc.chunk;
        for (std::size_t i = 0; i < fed.recs.size(); ++i)
            ASSERT_TRUE(sameRec(got.recs[i], fed.recs[i]))
                << "case " << k << " record " << i;
    }
}

TEST(TraceStore, ReplayPlacementMatchesSharedHeap)
{
    // ReplayPlacement must reproduce SharedHeap's span semantics
    // exactly, including the line-interleaved fallback.
    rt::SharedHeap heap(8);
    ReplayPlacement rp;
    rp.reset(8);
    void* a = heap.alloc(4096);
    void* b = heap.alloc(4096);
    heap.setHome(a, 4096, 3);
    heap.setHome(b, 1000, 5);
    const Addr simA = heap.toSim(reinterpret_cast<Addr>(a));
    const Addr simB = heap.toSim(reinterpret_cast<Addr>(b));
    rp.apply(simA, 4096, 3);
    rp.apply(simB, 1000, 5);
    for (Addr off = 0; off < 8192; off += 64)
        EXPECT_EQ(rp.homeOf(simA + off), heap.homeOf(simA + off))
            << "offset " << off;
    // Far outside every span: interleaved fallback.
    for (Addr addr = simA + (1 << 24); addr < simA + (1 << 24) + 4096;
         addr += 64)
        EXPECT_EQ(rp.homeOf(addr), heap.homeOf(addr));
}

// ---------------------------------------------------------------------
// Rejection: truncated, corrupted, stale, mismatched.

TEST(TraceStore, RejectsMissingAndNonRegular)
{
    std::string err;
    EXPECT_EQ(TraceReader::open("/nonexistent/trace.s2t", &err),
              nullptr);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    EXPECT_EQ(TraceReader::open("/tmp", &err), nullptr);
    EXPECT_NE(err.find("regular file"), std::string::npos) << err;
}

TEST(TraceStore, RejectsTruncation)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(2);
    const std::string path =
        writeTrace(dir, m, randomStream(2, 600, 9), 100);
    const auto whole = slurp(path);
    ASSERT_GT(whole.size(), 200u);
    // Every prefix must be rejected -- header-short, mid-chunk, and
    // footer-short truncations alike.
    for (std::size_t keep : {std::size_t(0), std::size_t(17),
                             std::size_t(127), std::size_t(128),
                             whole.size() / 2, whole.size() - 5}) {
        const std::string t = path + ".trunc";
        spit(t, {whole.begin(), whole.begin() + keep});
        std::string err;
        EXPECT_EQ(TraceReader::open(t, &err), nullptr)
            << "accepted a " << keep << "-byte prefix";
        EXPECT_FALSE(err.empty());
    }
}

TEST(TraceStore, RejectsStaleFormatVersion)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(2);
    const std::string path =
        writeTrace(dir, m, randomStream(2, 100, 21), 64);
    auto bytes = slurp(path);
    // Bump the version field (offset 8) and re-seal the header CRC
    // (offset 124, over the first 124 bytes) -- a structurally valid
    // file from "the future" must still be rejected, with a message
    // telling the user to re-record.
    bytes[8] = 99;
    const std::uint32_t crc = crc32(bytes.data(), 124);
    std::memcpy(bytes.data() + 124, &crc, 4);
    spit(path, bytes);
    std::string err;
    EXPECT_EQ(TraceReader::open(path, &err), nullptr);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_NE(err.find("re-record"), std::string::npos) << err;
}

TEST(TraceStore, RejectsUnfinalizedRecording)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(2);
    const std::string path =
        writeTrace(dir, m, randomStream(2, 100, 22), 64);
    auto bytes = slurp(path);
    bytes[112] = 0;  // finalized flag
    const std::uint32_t crc = crc32(bytes.data(), 124);
    std::memcpy(bytes.data() + 124, &crc, 4);
    spit(path, bytes);
    std::string err;
    EXPECT_EQ(TraceReader::open(path, &err), nullptr);
    EXPECT_NE(err.find("finalized"), std::string::npos) << err;
}

TEST(TraceStore, AbortedWriterLeavesNoFile)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(2);
    const std::string path = tracestore::pathFor(dir, m);
    {
        TraceWriter w(path, m, 16);
        for (const AccessRec& r : randomStream(2, 100, 23))
            w.access(r);
        // Destroyed without finalize(): a crashed recording.
    }
    std::string err;
    EXPECT_EQ(TraceReader::open(path, &err), nullptr);
    EXPECT_FALSE(tracestore::haveTrace(dir, m));
}

TEST(TraceStore, ByteFlipFuzzEveryPosition)
{
    const std::string dir = tempDir();
    TraceMeta m = testMeta(3);
    // Small but complete: several chunks, events, a footer.
    const std::string path =
        writeTrace(dir, m, randomStream(3, 400, 33), 64);
    const auto whole = slurp(path);
    const std::string t = path + ".flip";
    int accepted = 0;
    for (std::size_t at = 0; at < whole.size(); ++at) {
        auto bad = whole;
        bad[at] ^= 0x2d;
        spit(t, bad);
        std::string err;
        auto rd = TraceReader::open(t, &err);
        if (rd == nullptr)
            continue;  // rejected at open: good
        Journal sink;
        if (!rd->replay(&sink, &err))
            continue;  // rejected during decode: good
        ++accepted;
        ADD_FAILURE() << "byte flip at offset " << at
                      << " produced an accepted trace";
    }
    EXPECT_EQ(accepted, 0);
}

/** The decoder's checks behind a valid CRC: flip one bit of each
 *  payload byte of a small multi-chunk trace and re-seal that chunk's
 *  CRC.  Replay must then either fail with a diagnostic, or deliver
 *  exactly records() records with every processor in range (a flipped
 *  delta is a different but well-formed stream) -- never read or
 *  index out of bounds (the sanitizer CI job runs this). */
TEST(TraceStore, ResealedPayloadFlipsAreRejectedOrExact)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(3);
    const std::string path =
        writeTrace(dir, m, randomStream(3, 400, 33), 64);
    const auto whole = slurp(path);
    std::uint64_t chunks = 0;
    std::memcpy(&chunks, whole.data() + 96, 8);  // header chunk total
    ASSERT_GT(chunks, 1u);
    const std::string t = path + ".flip";
    int rejected = 0;
    int exact = 0;
    // Chunk frames follow the 128-byte header: magic, records, events,
    // payload bytes, then the CRC over those 16 bytes and the payload.
    std::size_t frame = 128;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        std::uint32_t payloadN = 0;
        std::memcpy(&payloadN, whole.data() + frame + 12, 4);
        const std::size_t payload = frame + 20;
        for (std::size_t at = payload; at < payload + payloadN; ++at) {
            auto bad = whole;
            bad[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
            const std::uint32_t crc =
                crc32(bad.data() + frame, 16,
                      crc32(bad.data() + payload, payloadN));
            std::memcpy(bad.data() + frame + 16, &crc, 4);
            spit(t, bad);
            std::string err;
            auto rd = TraceReader::open(t, &err);
            ASSERT_NE(rd, nullptr) << err;
            Journal got;
            if (!rd->replay(&got, &err)) {
                EXPECT_FALSE(err.empty());
                ++rejected;
                continue;
            }
            ++exact;
            ASSERT_EQ(got.recs.size(), rd->records()) << "flip at " << at;
            for (const AccessRec& r : got.recs)
                ASSERT_TRUE(r.proc >= 0 && r.proc < m.nprocs)
                    << "flip at " << at;
            for (const Journal::Ev& e : got.evs) {
                if (e.kind == 's') {
                    ASSERT_TRUE(e.sync.proc >= 0 && e.sync.proc < m.nprocs)
                        << "flip at " << at;
                }
            }
        }
        frame = payload + payloadN;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(exact, 0);
}

/** A record size the writer never emits -- above INT32_MAX, which
 *  AccessRec::size cannot hold -- must be refused even behind a valid
 *  CRC, not delivered as a negative size.  The one-chunk trace carries
 *  a 2^30-byte record and a 0-byte one (touchRead(p, 0) is legal live
 *  input); the first record's size varint is re-encoded in place and
 *  the chunk CRC re-sealed. */
TEST(TraceStore, RejectsRecordSizeAboveInt32)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(2);
    const std::string path = tracestore::pathFor(dir, m);
    {
        TraceWriter w(path, m);
        AccessRec r;
        r.proc = 0;
        r.addr = 0x100000000ull;
        r.size = 1 << 30;
        w.access(r);
        r.size = 0;
        w.access(r);
        ExecProfile e;
        e.procs.assign(m.nprocs, ExecProfile::Row{});
        std::string err;
        ASSERT_TRUE(w.finalize(e, &err)) << err;
    }
    const auto whole = slurp(path);
    // The chunk frame follows the 128-byte header; its payload starts
    // with the record's flag byte, the processor varint (0) and the
    // five-byte size varint 80 80 80 80 04.
    const std::size_t frame = 128, payload = frame + 20;
    std::uint32_t payloadN = 0;
    std::memcpy(&payloadN, whole.data() + frame + 12, 4);
    ASSERT_EQ(whole[payload + 1], 0x00);
    ASSERT_EQ(whole[payload + 6], 0x04);
    auto withSize = [&](std::uint8_t top, std::uint8_t low) {
        auto bad = whole;
        for (int i = 2; i < 6; ++i)
            bad[payload + i] = low;
        bad[payload + 6] = top;
        const std::uint32_t crc =
            crc32(bad.data() + frame, 16,
                  crc32(bad.data() + payload, payloadN));
        std::memcpy(bad.data() + frame + 16, &crc, 4);
        return bad;
    };
    struct Case
    {
        std::uint8_t top, low;
        bool ok;
        std::int32_t size;
    };
    const std::string t = path + ".size";
    for (const Case& c : {Case{0x04, 0x80, true, 1 << 30},
                          Case{0x07, 0xff, true, INT32_MAX},
                          Case{0x08, 0x80, false, 0},
                          Case{0x0f, 0xff, false, 0}}) {
        spit(t, withSize(c.top, c.low));
        std::string err;
        auto rd = TraceReader::open(t, &err);
        ASSERT_NE(rd, nullptr) << err;
        Journal got;
        const bool ok = rd->replay(&got, &err);
        ASSERT_EQ(ok, c.ok) << "top byte " << int(c.top) << ": " << err;
        if (!ok) {
            EXPECT_NE(err.find("record size out of range"),
                      std::string::npos)
                << err;
            continue;
        }
        ASSERT_EQ(got.recs.size(), 2u);
        EXPECT_EQ(got.recs[0].size, c.size);
        EXPECT_EQ(got.recs[1].size, 0);
    }
}

TEST(TraceStore, StoreIdentityAndMismatchDiagnostics)
{
    const std::string dir = tempDir();
    const TraceMeta m = testMeta(4);
    writeTrace(dir, m, randomStream(4, 200, 44), 64);
    EXPECT_TRUE(tracestore::haveTrace(dir, m));

    // A different identity hashes to a different store file.
    TraceMeta other = m;
    other.scale = 0.25;
    EXPECT_NE(tracestore::pathFor(dir, other), tracestore::pathFor(dir, m));
    std::string err;
    EXPECT_EQ(tracestore::openFor(dir, other, &err), nullptr);
    EXPECT_NE(err.find("--record"), std::string::npos) << err;

    // Same file forced (single-file path), wrong identity: the pinned
    // header must reject app and P mismatches with both identities in
    // the message.
    const std::string file = tracestore::pathFor(dir, m);
    TraceMeta wrongApp = m;
    wrongApp.app = "fft";
    EXPECT_EQ(tracestore::openFor(file, wrongApp, &err), nullptr);
    EXPECT_NE(err.find("synthetic"), std::string::npos) << err;
    EXPECT_NE(err.find("fft"), std::string::npos) << err;
    TraceMeta wrongP = m;
    wrongP.nprocs = 8;
    EXPECT_EQ(tracestore::openFor(file, wrongP, &err), nullptr);
    EXPECT_NE(err.find("P=8"), std::string::npos) << err;

    // Exact identity through the same file succeeds.
    EXPECT_NE(tracestore::openFor(file, m, &err), nullptr) << err;
}

// ---------------------------------------------------------------------
// App-level: record -> replay equality for a real characterization.

TEST(TraceStore, RecordThenReplayCharacterizationIsIdentical)
{
    using namespace splash::harness;
    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    const int procs = 4;
    AppConfig cfg;
    cfg.scale = 0.25;

    std::vector<MemExperiment> exps(2);
    exps[0].cache.lineSize = 32;
    // exps[1] is the default machine.

    const std::string dir = tempDir();
    const sim::RaceConfig word{sim::RaceGranularity::Word, procs};
    SimOpts live;
    live.record = dir;
    sim::RaceChecker liveRace(word);
    auto recorded =
        runCharacterizations(*app, procs, exps, cfg, live, &liveRace);

    SimOpts replayed = live;
    replayed.record.clear();
    replayed.replay = dir;
    sim::RaceChecker replayRace(word);
    auto got =
        runCharacterizations(*app, procs, exps, cfg, replayed, &replayRace);

    ASSERT_EQ(got.size(), recorded.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        splash::testing::expectSameRun(recorded[i], got[i]);
    const sim::RaceOutcome a = liveRace.outcome();
    const sim::RaceOutcome b = replayRace.outcome();
    EXPECT_TRUE(a.clean());
    EXPECT_EQ(b.clean(), a.clean());
    EXPECT_GT(a.census.barrierArrivals, 0u);
    EXPECT_EQ(b.census.barrierArrivals, a.census.barrierArrivals);
    EXPECT_EQ(b.census.lockAcquires, a.census.lockAcquires);
    EXPECT_EQ(b.granulesTracked, a.granulesTracked);

    // Record-once: a second recording run reuses the stored trace
    // (same results, no re-write).
    auto again = runCharacterizations(*app, procs, exps, cfg, live);
    EXPECT_EQ(again[0].mem.reads, recorded[0].mem.reads);

    // Bloat guard, not a compression target: the format spends bits
    // for encode/decode speed, and this FFT trace measures 28.1
    // bits/ref.  The bound leaves 28% headroom, so a change that
    // widens every record by a byte (+8 bits) fails here.
    std::string err;
    auto rd = tracestore::openFor(
        dir, traceMetaFor(*app, procs, cfg, live), &err);
    ASSERT_NE(rd, nullptr) << err;
    const double bitsPerRef =
        8.0 * double(rd->fileBytes()) / double(rd->records());
    EXPECT_LT(bitsPerRef, 36.0);
    EXPECT_GT(rd->records(), 100000u);
}

} // namespace
