/**
 * @file
 * Broadcast replay: one reference stream, many simulators.
 *
 * The paper's memory-system characterizations (Figures 4-7, the
 * protocol ablation) vary only machine parameters -- line size, cache
 * size, replacement hints, data placement -- while the PRAM reference
 * stream of a given (application, P) is identical across all of them,
 * so the harness executes each application ONCE and feeds every
 * configuration from that one stream (harness/experiment.h).  This
 * component gives each of those sinks its own host thread: it feeds N
 * independent replicas from the single stream.  A replica is any
 * RefSink: a MemSystem per configuration, a race detector, or one
 * processor-range shard of the working-set sweep (sim/sweep.h).
 *
 * Pipeline shape: single producer (the Env's instrumentation, via
 * RefSink::access), multiple consumers (one host worker thread per
 * replica).  References are staged into fixed-capacity chunks placed
 * in a sequence-numbered ring; a chunk is published when full and
 * recycled only after every consumer has replayed it, which gives
 * bounded back-pressure: the producer stalls instead of buffering an
 * unbounded (or disk-materialized) trace.
 *
 * Determinism: each consumer replays every chunk in sequence order on
 * one thread, so each replica observes exactly the reference stream a
 * dedicated serial simulation would have observed -- statistics are
 * bit-identical to a dedicated pass per configuration (proven by
 * tests/sim/replay_test.cc).  Stream-ordered control events
 * ride in the chunks themselves: sync edges at their record position,
 * statistics resets (measurement boundaries) as a chunk mark so each
 * replica resets at the exact stream position, and placement changes
 * arrive through streamBarrier(), which quiesces all consumers before
 * the home map mutates.
 *
 * An inline (threads-off) mode replays chunks on the producer thread.
 * The harness never needs it -- with one thread it feeds the sinks
 * directly -- but tests and the benchmark's layer probe use it to stage
 * a stream without threads.
 */
#ifndef SPLASH2_SIM_REPLAY_H
#define SPLASH2_SIM_REPLAY_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/memsys.h"
#include "sim/trace.h"

namespace splash::sim {

/** A MemSystem replica the broadcast owns (the spec constructor). */
struct ReplicaSpec
{
    MachineConfig machine;
    /** Home resolution for this replica: the run's placement-aware
     *  heap, or null for line-interleaved homes (the MemSystem
     *  default) -- the ablation's "no placement" point. */
    const HomeResolver* homes = nullptr;
};

class BroadcastReplay final : public RefSink
{
  public:
    /** Records per chunk unless a caller asks otherwise: 1.5 MB of
     *  AccessRec per ring slot. */
    static constexpr std::size_t kChunkRecords = std::size_t(1) << 16;

    /** Broadcast to caller-owned @p sinks, which must outlive it.
     *  Each replays every chunk as accessBatch runs split at the
     *  chunk's sync edges, then resetStats when the chunk carries one.
     *  @param threaded one consumer thread per sink; false replays
     *  chunks inline on the producer thread.
     *  @param chunkRecords records per chunk; @param ringChunks chunks
     *  in flight before the producer stalls (back-pressure bound). */
    explicit BroadcastReplay(std::vector<RefSink*> sinks,
                             bool threaded = true,
                             std::size_t chunkRecords = kChunkRecords,
                             int ringChunks = 4);
    /** Broadcast to one MemSystem per spec, owned here and read
     *  through replica(i). */
    explicit BroadcastReplay(const std::vector<ReplicaSpec>& specs,
                             bool threaded = true,
                             std::size_t chunkRecords = kChunkRecords,
                             int ringChunks = 4);
    ~BroadcastReplay() override;

    BroadcastReplay(const BroadcastReplay&) = delete;
    BroadcastReplay& operator=(const BroadcastReplay&) = delete;

    void access(const AccessRec& r) override;

    /** Stage a synchronization edge at its exact stream position. */
    void sync(const SyncRec& r) override;

    /** Stream-ordered statistics reset: every replica resets at this
     *  exact position of the reference stream (measurement boundary). */
    void resetStats() override;

    /** Quiesce: every published reference replayed in every replica. */
    void streamBarrier() override;

    /** Publish any partial chunk and quiesce; replica statistics are
     *  exact once this returns.  No-op after abortStream(). */
    void flush();

    /** Producer failed mid-stream: wake every consumer (including any
     *  blocked waiting for the next chunk) and discard undrained and
     *  partially staged work instead of replaying a torn tail.
     *  Idempotent.  The destructor calls this automatically when it
     *  runs during exception unwinding, so a throwing producer can
     *  never hang the consumers; replica statistics are unspecified
     *  afterwards. */
    void abortStream();

    /** True once the stream was aborted. */
    bool aborted() const { return aborted_.load(); }

    int replicas() const { return static_cast<int>(sinks_.size()); }
    /** Spec @p i's memory system (spec constructor only); flush()
     *  first for exact stats. */
    MemSystem& replica(int i) { return *owned_[i]; }
    const MemSystem& replica(int i) const { return *owned_[i]; }

  private:
    /** A sync edge between record [pos-1] and record [pos] of its
     *  chunk. */
    struct SyncAt
    {
        std::uint32_t pos = 0;
        SyncRec rec;
    };

    struct Chunk
    {
        std::uint64_t seq = 0;
        std::vector<AccessRec> recs;
        std::vector<SyncAt> syncs;
        bool reset = false;  ///< apply resetStats after the records
    };

    struct Consumer
    {
        RefSink* sink = nullptr;
        std::uint64_t done = 0;  ///< chunks fully replayed
        std::thread th;
    };

    /** Allocate the ring and, when @p threaded, start the consumers. */
    void start(bool threaded, int ringChunks);
    static void replayChunk(RefSink& sink, const Chunk& c);
    /** Producer: wait for slot of @p seq to be recycled, stage into it. */
    Chunk& acquireSlot();
    void publish(bool resetMark);
    void consumerLoop(Consumer& me);
    std::uint64_t minDone() const;
    /** Stop consumers and join; @p abort discards undrained chunks. */
    void shutdown(bool abort);

    std::size_t chunkRecords_;
    /** MemSystems the spec constructor built (empty otherwise). */
    std::vector<std::unique_ptr<MemSystem>> owned_;
    /** Every replica, in replica order. */
    std::vector<RefSink*> sinks_;

    std::vector<Chunk> ring_;
    Chunk* cur_ = nullptr;        ///< staging slot (producer-owned)
    std::uint64_t nextSeq_ = 0;   ///< seq of the chunk being staged

    mutable std::mutex mu_;
    std::condition_variable cvPublished_;  ///< producer -> consumers
    std::condition_variable cvRecycled_;   ///< consumers -> producer
    std::uint64_t published_ = 0;  ///< chunks visible to consumers
    bool stop_ = false;
    /** Producer failed; the tail is torn.  Atomic so the producer's
     *  hot path (access) can check it without taking the ring mutex. */
    std::atomic<bool> aborted_{false};
    /** In-flight exception count at construction: the destructor is
     *  running during unwinding exactly when the current count exceeds
     *  this, and must then abort instead of flushing a torn stream. */
    int uncaughtAtCtor_ = 0;
    std::vector<Consumer> consumers_;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_REPLAY_H
