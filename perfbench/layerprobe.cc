/**
 * @file
 * Layer probe behind the benchmark's traced run (run.py --trace 1).
 *
 * For every program of the suite, at 32 processors, it executes the
 * application three times through rt::Env: with no sink (rt.exec),
 * with one counting sink (rt.deliver: the drain of the batched ring
 * into a generic sink, with no work behind it), and with one capture
 * sink that keeps the whole reference stream in memory.  It then feeds
 * that identical stream, with its resets, sync edges and placement
 * changes at their stream positions, to each simulator layer on its
 * own: MemSystem, CacheSweep, ReuseDistProfiler, TraceWriter (encode),
 * TraceReader::replay (decode) and a one-replica inline
 * BroadcastReplay.  Each call is wrapped in a span (name, app, start,
 * end, parent); spans stay in memory and are written to one JSON file
 * at exit together with the statistics every layer produced, so
 * run.py can derive per-layer self times and check that each layer
 * reproduced the untraced run's numbers (i.e. timed the same work).
 *
 * Usage: layerprobe --scale F --seed N --work DIR --out FILE
 */
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/app.h"
#include "rt/env.h"
#include "sim/grid.h"
#include "sim/memsys.h"
#include "sim/replay.h"
#include "sim/reusedist.h"
#include "sim/sweep.h"
#include "sim/tracestore.h"

using namespace splash;

namespace {

using Clock = std::chrono::steady_clock;

/** Spans recorded in memory; written out once at exit. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string app;  ///< spans of one program share this id
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    int
    open(const std::string& name, const std::string& app, int parent)
    {
        spans_.push_back({name, app, now(), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end = now(); }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
};

/** The whole reference stream of one execution plus its stream-ordered
 *  events, in fixed-size chunks so capture never reallocates one giant
 *  buffer. */
class Capture final : public sim::RefSink
{
  public:
    static constexpr std::size_t kChunk = std::size_t(1) << 20;

    enum class Kind : std::uint8_t { Sync, Reset, Place };

    /** An event between record [pos-1] and record [pos]. */
    struct Event
    {
        std::uint64_t pos = 0;
        Kind kind = Kind::Sync;
        sim::SyncRec sync;
        sim::PlaceRec place;
    };

    void
    access(const sim::AccessRec& r) override
    {
        if (chunks_.empty() || chunks_.back().size() == kChunk) {
            chunks_.emplace_back();
            chunks_.back().reserve(kChunk);
        }
        chunks_.back().push_back(r);
        ++n_;
    }
    void
    sync(const sim::SyncRec& r) override
    {
        events_.push_back({n_, Kind::Sync, r, {}});
        ++syncs_;
    }
    void
    place(const sim::PlaceRec& r) override
    {
        events_.push_back({n_, Kind::Place, {}, r});
    }
    void resetStats() override { events_.push_back({n_, Kind::Reset, {}, {}}); }

    std::uint64_t size() const { return n_; }
    std::uint64_t syncs() const { return syncs_; }

    /** Replay in stream order: @p onRefs(recs, n) for each run of
     *  records between two events, @p onEvent(e) at each event. */
    template <typename R, typename E>
    void
    feed(R&& onRefs, E&& onEvent) const
    {
        std::uint64_t pos = 0;
        auto upTo = [&](std::uint64_t end) {
            while (pos < end) {
                const std::vector<sim::AccessRec>& c = chunks_[pos / kChunk];
                const std::size_t off = pos % kChunk;
                const std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(c.size() - off, end - pos));
                onRefs(c.data() + off, n);
                pos += n;
            }
        };
        for (const Event& e : events_) {
            upTo(e.pos);
            onEvent(e);
        }
        upTo(n_);
    }

  private:
    std::vector<std::vector<sim::AccessRec>> chunks_;
    std::vector<Event> events_;
    std::uint64_t n_ = 0;
    std::uint64_t syncs_ = 0;
};

/** Feed @p cap to a generic sink the way rt::Env does: placement
 *  changes quiesce the sink first and then move @p homes. */
void
feedSink(const Capture& cap, sim::RefSink& sink, sim::ReplayPlacement* homes)
{
    cap.feed(
        [&](const sim::AccessRec* r, std::size_t n) {
            for (std::size_t i = 0; i < n; ++i)
                sink.access(r[i]);
        },
        [&](const Capture::Event& e) {
            switch (e.kind) {
            case Capture::Kind::Sync:
                sink.sync(e.sync);
                break;
            case Capture::Kind::Reset:
                sink.resetStats();
                break;
            case Capture::Kind::Place:
                sink.streamBarrier();
                sink.place(e.place);
                if (homes != nullptr)
                    homes->apply(e.place.addr, e.place.bytes, e.place.home);
                break;
            }
        });
}

/** Counts what it is delivered, nothing more: the generic sink of the
 *  rt.deliver run and of the decode. */
class CountSink final : public sim::RefSink
{
  public:
    void access(const sim::AccessRec&) override { ++refs; }
    void sync(const sim::SyncRec&) override { ++syncs; }
    std::uint64_t refs = 0;
    std::uint64_t syncs = 0;
};

sim::ExecProfile
execProfileOf(const rt::Env& env, bool valid)
{
    sim::ExecProfile e;
    e.valid = valid;
    e.elapsed = env.elapsed();
    for (int p = 0; p < env.nprocs(); ++p) {
        const rt::ProcStats& s = env.stats(p);
        e.procs.push_back({s.reads, s.writes, s.flops, s.work, s.barriers,
                           s.locks, s.pauses, s.barrierWait, s.lockWait,
                           s.pauseWait, s.startTime, s.finishTime});
    }
    return e;
}

bool
sameMem(const sim::MemStats& a, const sim::MemStats& b)
{
    return a.reads == b.reads && a.writes == b.writes &&
           a.misses == b.misses && a.upgrades == b.upgrades &&
           a.invalidations == b.invalidations &&
           a.remoteSharedData == b.remoteSharedData &&
           a.remoteColdData == b.remoteColdData &&
           a.remoteCapacityData == b.remoteCapacityData &&
           a.remoteWriteback == b.remoteWriteback &&
           a.remoteOverhead == b.remoteOverhead &&
           a.localData == b.localData &&
           a.trueSharedData == b.trueSharedData;
}

std::string
lower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** The paper's machine size, as every benchmark pass runs it. */
constexpr int kProcs = 32;

struct Args
{
    double scale = 1.0;
    unsigned seed = 1234;
    std::string work;
    std::string out;
};

bool
parseArgs(int argc, char** argv, Args* a)
{
    if (argc % 2 == 0)
        return false;  // every flag takes a value
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--scale") a->scale = std::atof(v);
        else if (k == "--seed") a->seed = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else if (k == "--work") a->work = v;
        else if (k == "--out") a->out = v;
        else return false;
    }
    return !a->work.empty() && !a->out.empty() && a->scale > 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: layerprobe --scale F --seed N --work DIR "
                     "--out FILE\n");
        return 2;
    }
    const std::vector<harness::App*>& apps = harness::suite();
    std::FILE* out = std::fopen(args.out.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "layerprobe: cannot write '%s'\n",
                     args.out.c_str());
        return 2;
    }

    const int P = kProcs;
    harness::AppConfig cfg;
    cfg.scale = args.scale;
    cfg.seed = args.seed;
    const rt::EnvConfig envCfg{rt::Mode::Sim, P, 250, rt::BackendKind::Fiber,
                               rt::Delivery::Batched};
    sim::MachineConfig mc;  // the paper's machine: 1 MB 4-way 64 B, MESI
    mc.nprocs = P;
    sim::SweepConfig sc;  // the Figure-3 grid
    sc.nprocs = P;

    Tracer tr;
    bool ok = true;
    std::fprintf(out, "{\"apps\": [");
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        harness::App& app = *apps[ai];
        const std::string id = lower(app.name());
        const int root = tr.open("probe", id, -1);
        auto span = [&](const char* name, auto&& f) {
            const int s = tr.open(name, id, root);
            f();
            tr.close(s);
        };

        bool validBare = false;
        span("rt.exec", [&] {
            rt::Env env(envCfg);
            validBare = app.run(env, cfg).valid;
        });

        CountSink delivered;
        bool validCount = false;
        span("rt.deliver", [&] {
            rt::Env env(envCfg);
            env.attachSink(&delivered);
            validCount = app.run(env, cfg).valid;
        });

        // Probe work, not a layer: storing the stream costs more than
        // delivering it, so no metric uses this span.
        Capture cap;
        bool valid = false;
        std::uint64_t reads = 0, writes = 0;
        sim::ExecProfile exec;
        span("capture", [&] {
            rt::Env env(envCfg);
            env.attachSink(&cap);
            valid = app.run(env, cfg).valid;
            const rt::ProcStats t = env.totalStats();
            reads = t.reads;
            writes = t.writes;
            exec = execProfileOf(env, valid);
        });

        sim::MemStats mem;
        span("memsys", [&] {
            sim::ReplayPlacement homes;
            homes.reset(P, mc.cache.lineSize);
            sim::MemSystem ms(mc, &homes);
            cap.feed(
                [&](const sim::AccessRec* r, std::size_t n) {
                    for (std::size_t i = 0; i < n; ++i)
                        ms.access(r[i].proc, r[i].addr, r[i].size,
                                  r[i].type);
                },
                [&](const Capture::Event& e) {
                    if (e.kind == Capture::Kind::Reset)
                        ms.resetStats();
                    else if (e.kind == Capture::Kind::Place)
                        homes.apply(e.place.addr, e.place.bytes,
                                    e.place.home);
                });
            mem = ms.total();
        });

        std::unique_ptr<sim::CacheSweep> sweep;
        span("sweep", [&] {
            sweep = std::make_unique<sim::CacheSweep>(sc);
            cap.feed(
                [&](const sim::AccessRec* r, std::size_t n) {
                    for (std::size_t i = 0; i < n; ++i)
                        sweep->access(r[i].proc, r[i].addr, r[i].size,
                                      r[i].type);
                },
                [&](const Capture::Event& e) {
                    if (e.kind == Capture::Kind::Reset)
                        sweep->resetStats();
                });
        });

        sim::ReuseDistProfile profile;
        span("reusedist", [&] {
            sim::ReuseDistProfiler rd(P, sc.lineSize);
            feedSink(cap, rd, nullptr);
            profile = rd.profile();
        });

        sim::TraceMeta meta;
        meta.app = app.name();
        meta.nprocs = P;
        meta.scale = cfg.scale;
        meta.seed = cfg.seed;
        meta.quantum = envCfg.quantum;
        const std::string path = args.work + "/" + meta.fileName();
        std::string err;
        span("tracestore.encode", [&] {
            sim::TraceWriter w(path, meta);
            feedSink(cap, w, nullptr);
            if (!w.finalize(exec, &err))
                ok = false;
        });

        CountSink decoded;
        std::uint64_t traceBytes = 0;
        span("tracestore.decode", [&] {
            auto rd = sim::TraceReader::open(path, &err);
            if (rd == nullptr || !rd->replay(&decoded, &err)) {
                ok = false;
                return;
            }
            traceBytes = rd->fileBytes();
        });
        if (!err.empty())
            std::fprintf(stderr, "layerprobe: %s: %s\n", id.c_str(),
                         err.c_str());
        std::remove(path.c_str());

        bool bcastEqual = false;
        span("replay", [&] {
            sim::ReplayPlacement homes;
            homes.reset(P, mc.cache.lineSize);
            sim::ReplicaSpec spec;
            spec.machine = mc;
            spec.homes = &homes;
            sim::BroadcastReplay bc({spec}, false);
            feedSink(cap, bc, &homes);
            bc.flush();
            bcastEqual = sameMem(bc.replica(0).total(), mem);
        });
        tr.close(root);

        bool faEqual = true;
        for (std::uint64_t size : sim::fig3Sizes())
            faEqual = faEqual && profile.faMisses(size) ==
                                     sweep->misses(size, sim::kFullyAssoc);

        std::fprintf(out, "%s\n  {\"app\": \"%s\", \"valid\": %s, "
                          "\"valid_bare\": %s, \"valid_count\": %s, "
                          "\"refs\": %llu, \"syncs\": %llu, "
                          "\"reads\": %llu, \"writes\": %llu,\n"
                          "   \"deliver\": {\"refs\": %llu, "
                          "\"syncs\": %llu},\n",
                     ai ? "," : "", id.c_str(), valid ? "true" : "false",
                     validBare ? "true" : "false",
                     validCount ? "true" : "false",
                     static_cast<unsigned long long>(cap.size()),
                     static_cast<unsigned long long>(cap.syncs()),
                     static_cast<unsigned long long>(reads),
                     static_cast<unsigned long long>(writes),
                     static_cast<unsigned long long>(delivered.refs),
                     static_cast<unsigned long long>(delivered.syncs));
        std::fprintf(out,
                     "   \"mem\": {\"accesses\": %llu, \"misses\": "
                     "[%llu, %llu, %llu, %llu], \"upgrades\": %llu, "
                     "\"broadcast_equal\": %s},\n",
                     static_cast<unsigned long long>(mem.accesses()),
                     static_cast<unsigned long long>(mem.misses[0]),
                     static_cast<unsigned long long>(mem.misses[1]),
                     static_cast<unsigned long long>(mem.misses[2]),
                     static_cast<unsigned long long>(mem.misses[3]),
                     static_cast<unsigned long long>(mem.upgrades),
                     bcastEqual ? "true" : "false");
        auto rates = [&](bool model) {
            std::fprintf(out, "[");
            const auto& sizes = sim::fig3Sizes();
            for (std::size_t si = 0; si < sizes.size(); ++si) {
                std::fprintf(out, "%s[", si ? ", " : "");
                const auto& assocs = sim::fig3ReportAssocs();
                for (std::size_t k = 0; k < assocs.size(); ++k)
                    std::fprintf(out, "%s%.17g", k ? ", " : "",
                                 model ? profile.missRate(sizes[si],
                                                          assocs[k])
                                       : sweep->missRate(sizes[si],
                                                         assocs[k]));
                std::fprintf(out, "]");
            }
            std::fprintf(out, "]");
        };
        std::fprintf(out, "   \"sweep\": {\"rates\": ");
        rates(false);
        std::fprintf(out, "},\n   \"model\": {\"accesses\": %llu, "
                          "\"stale_frac\": %.17g, \"fa_equal\": %s, "
                          "\"rates\": ",
                     static_cast<unsigned long long>(profile.accesses()),
                     profile.staleFraction(), faEqual ? "true" : "false");
        rates(true);
        std::fprintf(out, "},\n   \"trace\": {\"bytes\": %llu, "
                          "\"decoded_refs\": %llu, "
                          "\"decoded_syncs\": %llu}}",
                     static_cast<unsigned long long>(traceBytes),
                     static_cast<unsigned long long>(decoded.refs),
                     static_cast<unsigned long long>(decoded.syncs));
        std::fflush(out);
    }

    std::fprintf(out, "],\n\"spans\": [");
    const auto& spans = tr.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
        std::fprintf(out,
                     "%s\n  {\"name\": \"%s\", \"app\": \"%s\", "
                     "\"start\": %.9f, \"end\": %.9f, \"parent\": %d}",
                     i ? "," : "", spans[i].name.c_str(),
                     spans[i].app.c_str(), spans[i].start, spans[i].end,
                     spans[i].parent);
    std::fprintf(out, "]}\n");
    const bool wrote = std::fclose(out) == 0;
    return ok && wrote ? 0 : 1;
}
