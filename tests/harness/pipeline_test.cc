// Differential test of the run pipeline across all of its axes: every
// source (live execution, live with --record, --replay of that
// recording), both --replicas modes, and every kind of sink set (one
// MemSystem, six line sizes from one pass with a caller-owned
// word-granularity race checker beside them, the exact plus model
// working-set sweep, the model-only sweep, no sink at all) must
// produce the statistics of the serial live oracle.
// Two more cases pin the one-pass rule: a six-configuration
// characterization executes its program once in either replica mode,
// and a replayed model sweep reads its trace store without writing to
// it.
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../rt/run_compare.h"
#include "harness/workingset.h"
#include "sim/grid.h"

using namespace splash;
using namespace splash::harness;
using splash::testing::expectSameRun;

namespace {

constexpr int kProcs = 8;

/** What every sink set of one pipeline configuration produced. */
struct Outputs
{
    std::vector<RunStats> one;  ///< one MemSystem
    std::vector<RunStats> six;  ///< six line sizes
    sim::RaceOutcome race;      ///< word checker beside the six
    WorkingSetRun sweep;        ///< exact + model sweep
    WorkingSetRun model;        ///< --sweep model
    RunStats pram;              ///< PRAM only
};

Outputs
runAll(App& app, const AppConfig& cfg, SimOpts so)
{
    std::vector<MemExperiment> six(6);
    for (std::size_t i = 0; i < six.size(); ++i)
        six[i].cache.lineSize = 8 << i;
    Outputs out;
    out.one = runCharacterizations(app, kProcs, {MemExperiment{}}, cfg, so);
    // Under --replicas on the checker shares the threaded broadcast
    // with the six MemSystems.
    sim::RaceChecker race({sim::RaceGranularity::Word, kProcs});
    out.six = runCharacterizations(app, kProcs, six, cfg, so, &race);
    out.race = race.outcome();
    sim::SweepConfig sc;
    sc.nprocs = kProcs;
    so.sweep = sim::SweepMode::Both;
    out.sweep = runWorkingSets(app, kProcs, sc, cfg, so);
    so.sweep = sim::SweepMode::Model;
    out.model = runWorkingSets(app, kProcs, sc, cfg, so);
    out.pram = runPram(app, kProcs, cfg, so);
    return out;
}

void
expectSameOutputs(const Outputs& want, const Outputs& got)
{
    for (std::size_t i = 0; i < want.one.size(); ++i)
        expectSameRun(want.one[i], got.one.at(i));
    for (std::size_t i = 0; i < want.six.size(); ++i)
        expectSameRun(want.six[i], got.six.at(i));
    expectSameRun(want.sweep.stats, got.sweep.stats);
    EXPECT_EQ(want.sweep.exact.accesses(), got.sweep.exact.accesses());
    for (std::uint64_t size : sim::fig3Sizes())
        for (int assoc : sim::fig3ReportAssocs())
            for (bool model : {false, true})
                EXPECT_EQ(wsMissRate(want.sweep, size, assoc, model),
                          wsMissRate(got.sweep, size, assoc, model))
                    << size << "B " << assoc << "-way model " << model;
    // The model-only sweep (threaded shards under --replicas on, a
    // replay of the trace under --replay) records the --sweep both
    // profile.
    expectSameRun(want.sweep.stats, got.model.stats);
    EXPECT_TRUE(got.model.model == want.sweep.model);
    expectSameRun(want.pram, got.pram);
    const sim::RaceOutcome& a = want.race;
    const sim::RaceOutcome& b = got.race;
    EXPECT_EQ(a.races, b.races);
    EXPECT_EQ(a.granulesTracked, b.granulesTracked);
    EXPECT_EQ(a.census.barrierArrivals, b.census.barrierArrivals);
    EXPECT_EQ(a.census.lockAcquires, b.census.lockAcquires);
    EXPECT_EQ(a.census.flagWaits, b.census.flagWaits);
}

class PipelineDifferential : public ::testing::TestWithParam<const char*>
{};

} // namespace

TEST_P(PipelineDifferential, EverySourceReplicaModeAndSinkSetAgrees)
{
    App* app = findApp(GetParam());
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.1;
    const std::string store = ::testing::TempDir() + "pipeline_" +
                              GetParam() + "_" + std::to_string(::getpid());
    ASSERT_EQ(::mkdir(store.c_str(), 0777), 0) << store;

    SimOpts oracle;
    oracle.replicas = Replicas::Off;
    const Outputs want = runAll(*app, cfg, oracle);
    ASSERT_TRUE(want.one.at(0).valid);
    ASSERT_TRUE(want.race.clean());
    ASSERT_GT(want.race.census.barrierArrivals, 0u);

    for (Replicas replicas : {Replicas::Off, Replicas::On}) {
        // Live, then live while recording, then replay of the record.
        for (int source = 0; source < 3; ++source) {
            SCOPED_TRACE(std::string("replicas ") +
                         (replicas == Replicas::On ? "on" : "off") +
                         " source " + std::to_string(source));
            SimOpts so;
            so.replicas = replicas;
            if (source == 1)
                so.record = store;
            if (source == 2)
                so.replay = store;
            expectSameOutputs(want, runAll(*app, cfg, so));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, PipelineDifferential,
                         ::testing::Values("fft", "ocean"));

namespace {

/** Counts how often the program it wraps executes. */
class CountingApp final : public App
{
  public:
    explicit CountingApp(App& inner) : inner_(inner) {}
    std::string name() const override { return inner_.name(); }
    bool isFloatingPoint() const override
    {
        return inner_.isFloatingPoint();
    }
    AppResult
    run(rt::Env& env, const AppConfig& cfg) override
    {
        ++runs;
        return inner_.run(env, cfg);
    }

    int runs = 0;

  private:
    App& inner_;
};

} // namespace

// Six line sizes come from one execution of the program whatever
// --replicas says: the mode picks host threads, never passes.
TEST(OnePass, SixLineSizesExecuteTheProgramOnce)
{
    App* fft = findApp("fft");
    ASSERT_NE(fft, nullptr);
    CountingApp app(*fft);
    AppConfig cfg;
    cfg.scale = 0.1;
    std::vector<MemExperiment> six(6);
    for (std::size_t i = 0; i < six.size(); ++i)
        six[i].cache.lineSize = 8 << i;
    for (Replicas replicas : {Replicas::Off, Replicas::On}) {
        SimOpts so;
        so.replicas = replicas;
        app.runs = 0;
        EXPECT_EQ(runCharacterizations(app, kProcs, six, cfg, so).size(),
                  six.size());
        EXPECT_EQ(app.runs, 1)
            << "--replicas " << (replicas == Replicas::On ? "on" : "off");
    }
}

namespace {

/** Names of the entries of directory @p dir, sorted. */
std::vector<std::string>
filesIn(const std::string& dir)
{
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr)
        return out;
    while (const dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
            out.push_back(name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

/** @p got reports what @p want does at every column @p mode lists. */
void
expectSameSweep(const WorkingSetRun& want, const WorkingSetRun& got,
                sim::SweepMode mode)
{
    expectSameRun(want.stats, got.stats);
    EXPECT_TRUE(want.model == got.model);
    EXPECT_EQ(want.exact.accesses(), got.exact.accesses());
    const std::vector<int> assocs =
        mode == sim::SweepMode::Model
            ? std::vector<int>{sim::kFullyAssoc}
            : sim::fig3ReportAssocs();
    for (std::uint64_t size : sim::fig3Sizes())
        for (int assoc : assocs)
            EXPECT_EQ(want.exact.missRate(size, assoc),
                      got.exact.missRate(size, assoc))
                << size << "B " << assoc << "-way";
}

class ModelReplay : public ::testing::TestWithParam<const char*>
{};

} // namespace

// A model-bearing sweep replayed from a trace store reads the store and
// writes nothing back: `--sweep model` and `--sweep both`, each replayed
// twice, leave the store's file list as recording left it (one trace)
// and reproduce the live run every time.
TEST_P(ModelReplay, ReplaysLeaveTheStoreAloneAndEqualTheLiveSweep)
{
    App* app = findApp(GetParam());
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.25;
    const std::string store = ::testing::TempDir() + "model_replay_" +
                              GetParam() + "_" + std::to_string(::getpid());
    ASSERT_EQ(::mkdir(store.c_str(), 0777), 0) << store;
    sim::SweepConfig sc;
    sc.nprocs = kProcs;

    for (sim::SweepMode mode :
         {sim::SweepMode::Model, sim::SweepMode::Both}) {
        SCOPED_TRACE(std::string("--sweep ") + sim::sweepModeName(mode));
        SimOpts so;
        so.sweep = mode;
        const WorkingSetRun live = runWorkingSets(*app, kProcs, sc, cfg, so);
        so.record = store;
        expectSameSweep(live, runWorkingSets(*app, kProcs, sc, cfg, so),
                        mode);
        const std::vector<std::string> recorded = filesIn(store);
        ASSERT_EQ(recorded.size(), 1u);
        so.record.clear();
        so.replay = store;
        for (int rep = 0; rep < 2; ++rep) {
            SCOPED_TRACE("replay " + std::to_string(rep));
            expectSameSweep(live, runWorkingSets(*app, kProcs, sc, cfg, so),
                            mode);
            EXPECT_EQ(filesIn(store), recorded);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, ModelReplay,
                         ::testing::Values("fft", "ocean"));
