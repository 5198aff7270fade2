// Differential test of the run pipeline across all of its axes: every
// source (live execution, live with --record, --replay of that
// recording), both --replicas modes, and every kind of sink set (one
// MemSystem fed directly, six line sizes through a broadcast, the
// exact plus model working-set sweep, the model-only sweep, the
// word-granularity race detector) must produce the statistics of the
// serial live oracle.
// A second case pins the reuse-distance fast path: a model sweep
// replayed from a recorded profile sidecar.
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
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
    WorkingSetRun sweep;        ///< exact + model sweep
    WorkingSetRun model;        ///< --sweep model
    RunStats race;              ///< word-granularity race detector
};

Outputs
runAll(App& app, const AppConfig& cfg, SimOpts so)
{
    std::vector<MemExperiment> six(6);
    for (std::size_t i = 0; i < six.size(); ++i)
        six[i].cache.lineSize = 8 << i;
    Outputs out;
    out.one = runCharacterizations(app, kProcs, {MemExperiment{}}, cfg, so);
    out.six = runCharacterizations(app, kProcs, six, cfg, so);
    sim::SweepConfig sc;
    sc.nprocs = kProcs;
    so.sweep = sim::SweepMode::Both;
    out.sweep = runWorkingSets(app, kProcs, sc, cfg, so);
    so.sweep = sim::SweepMode::Model;
    out.model = runWorkingSets(app, kProcs, sc, cfg, so);
    so.race = sim::RaceGranularity::Word;
    out.race = runPram(app, kProcs, cfg, so);
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
    // The model-only sweep (threaded shards under --replicas on, the
    // sidecar on replay) records the --sweep both profile.
    expectSameRun(want.sweep.stats, got.model.stats);
    EXPECT_TRUE(got.model.model == want.sweep.model);
    expectSameRun(want.race, got.race);
    ASSERT_TRUE(got.race.raceChecked);
    const sim::RaceOutcome& a = want.race.race;
    const sim::RaceOutcome& b = got.race.race;
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
    ASSERT_TRUE(want.race.race.clean());

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

/** Wall seconds of one runWorkingSets call. */
double
timedSweep(App& app, const AppConfig& cfg, const SimOpts& so,
           WorkingSetRun* out)
{
    sim::SweepConfig sc;
    sc.nprocs = kProcs;
    const auto t0 = std::chrono::steady_clock::now();
    *out = runWorkingSets(app, kProcs, sc, cfg, so);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Paths of the ".rdp" profile sidecars in store directory @p dir. */
std::vector<std::string>
sidecarsIn(const std::string& dir)
{
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr)
        return out;
    while (const dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.ends_with(".rdp"))
            out.push_back(dir + "/" + name);
    }
    ::closedir(d);
    return out;
}

class ModelSidecar : public ::testing::TestWithParam<const char*>
{};

} // namespace

// `--sweep model --record` saves the profile next to the trace as one
// ".rdp" sidecar; `--sweep model --replay` of that store must then
// load it, with neither execution nor replay, reproduce the live
// profile exactly, and take at most a tenth of the exact sweep's wall
// time.
TEST_P(ModelSidecar, ReplayLoadsTheLiveProfileTenTimesFasterThanExact)
{
    App* app = findApp(GetParam());
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.25;
    const std::string store = ::testing::TempDir() + "sidecar_" +
                              GetParam() + "_" + std::to_string(::getpid());
    ASSERT_EQ(::mkdir(store.c_str(), 0777), 0) << store;

    WorkingSetRun exact, live, fast;
    SimOpts so;
    const double exactSeconds = timedSweep(*app, cfg, so, &exact);
    so.sweep = sim::SweepMode::Model;
    so.record = store;
    timedSweep(*app, cfg, so, &live);
    so.record.clear();
    so.replay = store;
    // Best of three: one stray preemption would swamp a load that
    // takes well under a millisecond.
    double modelSeconds = timedSweep(*app, cfg, so, &fast);
    for (int rep = 0; rep < 2; ++rep)
        modelSeconds =
            std::min(modelSeconds, timedSweep(*app, cfg, so, &fast));

    EXPECT_FALSE(live.modelFromProfile);
    ASSERT_TRUE(fast.modelFromProfile) << "the sidecar was not used";
    EXPECT_TRUE(fast.model == live.model);
    expectSameRun(live.stats, fast.stats);
    const std::vector<std::string> rdp = sidecarsIn(store);
    ASSERT_EQ(rdp.size(), 1u);
    EXPECT_EQ(rdp[0], sim::profilePathFor(
                          store, traceMetaFor(*app, kProcs, cfg, so)));
    EXPECT_LE(10.0 * modelSeconds, exactSeconds)
        << "exact " << exactSeconds << " s, model from sidecar "
        << modelSeconds << " s";
}

INSTANTIATE_TEST_SUITE_P(Apps, ModelSidecar,
                         ::testing::Values("fft", "ocean"));
