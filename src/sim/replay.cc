#include "sim/replay.h"

#include <exception>

#include "base/log.h"

namespace splash::sim {

BroadcastReplay::BroadcastReplay(std::vector<RefSink*> sinks,
                                 bool threaded,
                                 std::size_t chunkRecords,
                                 int ringChunks)
    : chunkRecords_(chunkRecords), sinks_(std::move(sinks)),
      uncaughtAtCtor_(std::uncaught_exceptions())
{
    start(threaded, ringChunks);
}

BroadcastReplay::BroadcastReplay(const std::vector<ReplicaSpec>& specs,
                                 bool threaded,
                                 std::size_t chunkRecords,
                                 int ringChunks)
    : chunkRecords_(chunkRecords),
      uncaughtAtCtor_(std::uncaught_exceptions())
{
    for (const ReplicaSpec& s : specs) {
        owned_.push_back(std::make_unique<MemSystem>(s.machine, s.homes));
        sinks_.push_back(owned_.back().get());
    }
    start(threaded, ringChunks);
}

void
BroadcastReplay::start(bool threaded, int ringChunks)
{
    ensure(!sinks_.empty(), "broadcast replay needs at least one replica");
    ensure(chunkRecords_ >= 1 && ringChunks >= 2,
           "broadcast replay ring too small");
    ring_.resize(ringChunks);
    for (auto& c : ring_)
        c.recs.reserve(chunkRecords_);

    if (!threaded)
        return;
    consumers_.resize(sinks_.size());
    for (std::size_t i = 0; i < consumers_.size(); ++i) {
        consumers_[i].sink = sinks_[i];
        consumers_[i].th =
            std::thread([this, i] { consumerLoop(consumers_[i]); });
    }
}

BroadcastReplay::~BroadcastReplay()
{
    // Destroyed during exception unwinding (the producer threw
    // mid-stream): the staged tail is torn, so abort -- wake blocked
    // consumers and discard -- rather than flush and block on a full
    // drain of a stream that was never completed.
    if (std::uncaught_exceptions() > uncaughtAtCtor_)
        abortStream();
    if (!aborted())
        flush();
    shutdown(/*abort=*/false);
}

void
BroadcastReplay::shutdown(bool abort)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
        if (abort)
            aborted_.store(true);
    }
    cvPublished_.notify_all();
    cvRecycled_.notify_all();
    for (auto& c : consumers_)
        if (c.th.joinable())
            c.th.join();
}

void
BroadcastReplay::abortStream()
{
    cur_ = nullptr;  // drop the partially staged chunk
    shutdown(/*abort=*/true);
}

std::uint64_t
BroadcastReplay::minDone() const
{
    std::uint64_t m = published_;
    for (const auto& c : consumers_)
        m = std::min(m, c.done);
    return m;
}

BroadcastReplay::Chunk&
BroadcastReplay::acquireSlot()
{
    Chunk& slot = ring_[nextSeq_ % ring_.size()];
    if (!consumers_.empty() && nextSeq_ >= ring_.size()) {
        // Back-pressure: the slot is recycled only once every consumer
        // has replayed its previous occupant (seq - ringChunks).  The
        // stop_ escape keeps an abort from leaving the producer wedged
        // here.
        std::unique_lock<std::mutex> lk(mu_);
        cvRecycled_.wait(lk, [&] {
            return stop_ || minDone() + ring_.size() > nextSeq_;
        });
    }
    slot.seq = nextSeq_;
    slot.recs.clear();
    slot.syncs.clear();
    slot.reset = false;
    return slot;
}

void
BroadcastReplay::access(const AccessRec& r)
{
    if (aborted_.load(std::memory_order_relaxed)) [[unlikely]]
        return;  // stream is dead; drop the reference
    if (cur_ == nullptr)
        cur_ = &acquireSlot();
    cur_->recs.push_back(r);
    if (cur_->recs.size() == chunkRecords_)
        publish(false);
}

void
BroadcastReplay::sync(const SyncRec& r)
{
    if (aborted_.load(std::memory_order_relaxed)) [[unlikely]]
        return;
    if (cur_ == nullptr)
        cur_ = &acquireSlot();
    cur_->syncs.push_back(
        {static_cast<std::uint32_t>(cur_->recs.size()), r});
}

void
BroadcastReplay::publish(bool resetMark)
{
    if (cur_ == nullptr)
        cur_ = &acquireSlot();  // control event on an empty chunk
    cur_->reset = resetMark;
    ++nextSeq_;
    if (consumers_.empty()) {
        // Inline mode: replay the chunk into every replica here.
        for (RefSink* s : sinks_)
            replayChunk(*s, *cur_);
        cur_ = nullptr;
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        published_ = nextSeq_;
    }
    cvPublished_.notify_all();
    cur_ = nullptr;
}

void
BroadcastReplay::replayChunk(RefSink& sink, const Chunk& c)
{
    // Batches between sync edges, so the sink sees exactly the order
    // the runtime emitted.
    std::size_t from = 0;
    for (const SyncAt& s : c.syncs) {
        if (s.pos > from)
            sink.accessBatch(&c.recs[from], s.pos - from);
        from = s.pos;
        sink.sync(s.rec);
    }
    if (from < c.recs.size())
        sink.accessBatch(&c.recs[from], c.recs.size() - from);
    if (c.reset)
        sink.resetStats();
}

void
BroadcastReplay::consumerLoop(Consumer& me)
{
    for (;;) {
        std::uint64_t seq = me.done;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cvPublished_.wait(lk,
                              [&] { return published_ > seq || stop_; });
            // On abort leave immediately, undrained chunks and all;
            // on a clean stop drain what was published first.
            if (aborted_.load() || published_ <= seq)
                return;
        }
        // The slot cannot be recycled before every consumer (us
        // included) advances past it, so this read needs no lock.
        const Chunk& c = ring_[seq % ring_.size()];
        ensure(c.seq == seq, "broadcast ring overwrote a live chunk");
        replayChunk(*me.sink, c);
        {
            std::lock_guard<std::mutex> lk(mu_);
            me.done = seq + 1;
        }
        cvRecycled_.notify_all();
    }
}

void
BroadcastReplay::resetStats()
{
    publish(true);
}

void
BroadcastReplay::streamBarrier()
{
    if (aborted_.load())
        return;  // nothing left to quiesce; the tail was discarded
    if (cur_ != nullptr && (!cur_->recs.empty() || !cur_->syncs.empty()))
        publish(false);
    if (consumers_.empty())
        return;
    std::unique_lock<std::mutex> lk(mu_);
    cvRecycled_.wait(lk, [&] { return stop_ || minDone() == published_; });
}

void
BroadcastReplay::flush()
{
    streamBarrier();
}

} // namespace splash::sim
