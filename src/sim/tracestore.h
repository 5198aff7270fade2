/**
 * @file
 * Record-once trace store: compact on-disk reference traces.
 *
 * Every characterization of a given (application, P, problem size)
 * replays exactly the same deterministic reference stream; the
 * broadcast engine (sim/replay.h) amortizes the producing execution
 * *within* one process, and this component makes it durable: a
 * TraceWriter records the stream once into a compact chunked file, and
 * a TraceReader replays it -- on any machine, in any later process --
 * with zero fiber execution.  Characterization becomes a cache lookup
 * instead of a simulation.
 *
 * What a trace carries (everything a BroadcastReplay consumer needs):
 *
 *  - every AccessRec (addr, ltime, size, proc, type, atomic flag),
 *  - every SyncRec at its exact stream position (race-detector edges),
 *  - statistics-reset events (measurement boundaries),
 *  - placement events (SharedHeap::setHome spans) so home resolution
 *    can be rebuilt without the runtime (ReplayPlacement,
 *    sim/directory.h),
 *  - the execution profile (per-processor ProcStats image + PRAM
 *    elapsed + validation verdict) in a footer, so PRAM-only figures
 *    replay too.
 *
 * On-disk layout (all integers little-endian, packed):
 *
 *   [Header 128 B]  magic "S2TRACE1", format version, (app, P,
 *                   problem size, seed, quantum) identity, record /
 *                   sync / chunk totals, finalized flag, header CRC.
 *   [Chunk]*        20 B frame (magic, records, events, payload bytes,
 *                   CRC32 over the frame fields and the payload) +
 *                   payload.
 *   [Footer]        execution profile + CRC.
 *
 * Chunk payload: the stream in its own order, one item at a time.  A
 * record is a flags byte (write, atomic, and whether the processor,
 * the access size or the processor's clock step changed), the changed
 * fields as varints, then the zigzag delta of the address against that
 * processor's previous address.  An event (sync / reset / placement)
 * is a kind byte with the high bit set plus its fields.  Per-processor
 * state and the current processor carry across chunks, so chunks
 * decode only in sequence -- the only order replay needs.  The format
 * trades size (~29 bits per reference over the suite, the
 * tracestore.bits_per_ref of a `perfbench/run.py --trace 1` run) for an
 * encoder and a decoder that each touch a record once.
 *
 * Robustness: the reader mmaps the file and bounds-checks every parse
 * against the mapping; the header CRC, per-chunk CRC, footer CRC, and
 * the pinned identity reject truncated, corrupted, or stale files
 * with a diagnostic instead of crashing or replaying garbage, and the
 * decoder range-checks every field behind a valid CRC
 * (tests/sim/tracestore_test.cc byte-flip fuzz).
 */
#ifndef SPLASH2_SIM_TRACESTORE_H
#define SPLASH2_SIM_TRACESTORE_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/types.h"
#include "sim/directory.h"
#include "sim/trace.h"

namespace splash::sim {

/** Low-level codec primitives, exposed for unit/fuzz tests. */
namespace tracecodec {

/** LEB128 unsigned varint. */
void putVarint(std::vector<std::uint8_t>& out, std::uint64_t v);

/** Decode one varint; advances @p p.  False on overrun or a varint
 *  longer than 10 bytes (corrupt input). */
bool getVarint(const std::uint8_t** p, const std::uint8_t* end,
               std::uint64_t* v);

constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** CRC-32 (IEEE 802.3 polynomial, reflected). */
std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0);

/** One processor's record-codec state, mirrored by writer and reader:
 *  each record is coded against its processor's previous address,
 *  clock, clock step and access size. */
struct ProcState
{
    Addr addr = 0;
    Tick clock = 0;
    Tick step = 0;
    std::int32_t size = 0;
};

} // namespace tracecodec

/** Identity of a recorded execution.  A trace is replayable only for
 *  the exact (app, P, problem size, seed, quantum) it was recorded
 *  from; the reader rejects any mismatch. */
struct TraceMeta
{
    std::string app;  ///< App::name(), <= 15 chars
    int nprocs = 0;
    double scale = 1.0;
    long n = 0;
    long iters = 0;
    long aux = 0;
    unsigned seed = 1234;
    std::uint64_t quantum = 250;

    bool operator==(const TraceMeta& o) const;
    bool operator!=(const TraceMeta& o) const { return !(*this == o); }

    /** "fft P=8 scale=0.25 n=0 iters=0 aux=0 seed=1234 quantum=250" */
    std::string describe() const;

    /** Canonical store filename: <app>_p<P>_<16-hex cfg hash>.s2t */
    std::string fileName() const;
};

/** Execution profile pinned in the trace footer: one row of raw
 *  counters per processor, in rt::ProcStats field order. */
struct ExecProfile
{
    static constexpr int kFields = 12;
    /** {reads, writes, flops, work, barriers, locks, pauses,
     *   barrierWait, lockWait, pauseWait, startTime, finishTime} */
    using Row = std::array<std::uint64_t, kFields>;

    bool valid = true;  ///< application self-check outcome
    Tick elapsed = 0;   ///< PRAM time of the measured window
    std::vector<Row> procs;
};

/** Record path: a RefSink that writes the stream to disk.  Attach via
 *  rt::Env::attachSink alongside any live sinks (recording never
 *  perturbs the run), then finalize() with the execution profile.
 *
 *  The writer stages into <path>.tmp.<pid> and atomically renames at
 *  finalize(), so a crashed or aborted recording never leaves a
 *  half-written file under the canonical name; destruction without
 *  finalize() removes the temporary. */
class TraceWriter final : public RefSink
{
  public:
    /** Default records per chunk: the writer's one staging buffer
     *  (a few MB) and the unit each CRC covers.  Nothing in the
     *  format depends on it. */
    static constexpr std::size_t kChunkRecords = std::size_t(1) << 20;

    /** Opens <path>.tmp.<pid> for writing; fatal() on I/O failure
     *  (callers validate the directory up front in the CLI). */
    TraceWriter(std::string path, const TraceMeta& meta,
                std::size_t chunkRecords = kChunkRecords);
    ~TraceWriter() override;

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    void access(const AccessRec& r) override;
    void sync(const SyncRec& r) override;
    /** Records a statistics-reset *event* at the current stream
     *  position (a measurement boundary to reproduce at replay);
     *  recorded data is never discarded. */
    void resetStats() override;
    void place(const PlaceRec& r) override;

    /** Flush the tail chunk, write the footer, rewrite the header
     *  with final totals, and atomically publish the file.  False
     *  (with @p err set) on I/O failure. */
    bool finalize(const ExecProfile& exec, std::string* err);

    std::uint64_t records() const { return totalRecords_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    /** Grows the payload buffer to fit one more item; returns the
     *  write cursor. */
    std::uint8_t* room();
    void flushChunk();

    std::string path_;
    std::string tmpPath_;
    TraceMeta meta_;
    std::size_t chunkRecords_;
    std::FILE* f_ = nullptr;
    bool finalized_ = false;

    std::vector<std::uint8_t> buf_;  ///< chunk payload; len_ bytes used
    std::size_t len_ = 0;
    std::size_t chunkRecs_ = 0;
    std::uint32_t chunkEvents_ = 0;
    std::vector<tracecodec::ProcState> procs_;
    std::int16_t cur_ = -1;  ///< processor of the previous record

    std::uint64_t totalRecords_ = 0;
    std::uint64_t totalSyncs_ = 0;
    std::uint64_t totalChunks_ = 0;
    std::uint64_t bytesWritten_ = 0;
};

/** Replay path: mmaps a trace file, validates it, and feeds any
 *  RefSink the exact stream the runtime produced -- references, sync
 *  edges, resets, and placement changes in stream order, with a
 *  streamBarrier() quiesce before every placement mutation (mirroring
 *  the live Env), so a BroadcastReplay fed from disk is
 *  indistinguishable from one fed by a live execution. */
class TraceReader
{
  public:
    /** Open + validate header and file structure; null with @p err
     *  set on any defect (bad magic, stale version, CRC mismatch,
     *  truncation, unfinalized file, bad footer). */
    static std::unique_ptr<TraceReader>
    open(const std::string& path, std::string* err);

    ~TraceReader();

    TraceReader(const TraceReader&) = delete;
    TraceReader& operator=(const TraceReader&) = delete;

    const TraceMeta& meta() const { return meta_; }
    const ExecProfile& exec() const { return exec_; }
    std::uint64_t records() const { return totalRecords_; }
    std::uint64_t syncs() const { return totalSyncs_; }
    std::uint64_t fileBytes() const { return size_; }

    /** Home resolver rebuilt from the recorded placement events;
     *  valid for replicas during and after replay(). */
    const HomeResolver* placement() const { return &placement_; }

    /** Decode every chunk and deliver the stream to @p sink.  False
     *  with @p err on any corruption.  Placement events mutate
     *  placement() between a streamBarrier() and the next record,
     *  exactly like the live runtime. */
    bool replay(RefSink* sink, std::string* err);

  private:
    TraceReader() = default;
    bool parseHeaderAndIndex(std::string* err);

    const std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
    int fd_ = -1;

    TraceMeta meta_;
    ExecProfile exec_;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t totalSyncs_ = 0;
    std::uint64_t totalChunks_ = 0;
    std::size_t chunkOffset_ = 0;  ///< first chunk frame
    ReplayPlacement placement_;
};

/** Directory-of-traces helpers: one canonical file per recorded
 *  (app, P, problem size, seed, quantum). */
namespace tracestore {

/** Canonical path of @p m inside store directory @p dir; if @p dir
 *  names an existing regular file it is returned unchanged (direct
 *  single-file replay). */
std::string pathFor(const std::string& dir, const TraceMeta& m);

/** Open the trace for @p m from @p dirOrFile and require its recorded
 *  identity to equal @p m; null with a diagnostic in @p err on a
 *  missing file, any validation failure, or an identity mismatch. */
std::unique_ptr<TraceReader> openFor(const std::string& dirOrFile,
                                     const TraceMeta& m,
                                     std::string* err);

/** True when a finalized, identity-matching trace for @p m already
 *  exists in @p dir (the record-once skip). */
bool haveTrace(const std::string& dir, const TraceMeta& m);

} // namespace tracestore

} // namespace splash::sim

#endif // SPLASH2_SIM_TRACESTORE_H
