// Tests for the shared engine-flag parser: every invalid value --
// nonsensical job counts, zero quanta, unknown modes, non-numeric
// garbage, flags nothing reads -- must be rejected loudly instead of
// silently falling back to a default, and valid values must land in
// the right SimOpts knob.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.h"

using namespace splash::harness;

namespace {

/** Options over a synthetic command line (@p words after "prog"). */
Options
optionsFor(std::vector<std::string> words)
{
    words.insert(words.begin(), "prog");
    std::vector<char*> argv;
    for (auto& s : words)
        argv.push_back(s.data());
    return Options(static_cast<int>(argv.size()), argv.data());
}

/** Run every flag parser over a synthetic command line, the way
 *  splash2run does. */
bool
parse(std::vector<std::string> words, EngineOpts* out)
{
    const Options opt = optionsFor(std::move(words));
    return parseEngineOpts(opt, out) &&
           parseMachineFlags(opt, MachineFlags::Interconnect, out) &&
           parseSweepFlag(opt, out);
}

/** Parse @p words, then run the mode-conflict matrix over them the
 *  way splash2run does.  Returns true when the combination is
 *  accepted end to end. */
bool
parseAndCheck(std::vector<std::string> words, std::string* err = nullptr)
{
    const Options opt = optionsFor(std::move(words));
    EngineOpts eng;
    ::testing::internal::CaptureStderr();
    bool ok = parseEngineOpts(opt, &eng) &&
              parseMachineFlags(opt, MachineFlags::Interconnect, &eng) &&
              parseSweepFlag(opt, &eng) && checkModeConflicts(opt, eng);
    std::string captured = ::testing::internal::GetCapturedStderr();
    if (err)
        *err = captured;
    return ok;
}

/** Parse the shared engine flags of @p words, the way every binary
 *  does, and the machine flags up to @p machine when given, then ask
 *  Options::allRead() about the rest.  Returns its verdict, with its
 *  diagnostics in @p err. */
bool
engineFlagsOnly(std::vector<std::string> words, std::string* err,
                std::optional<MachineFlags> machine = std::nullopt)
{
    const Options opt = optionsFor(std::move(words));
    EngineOpts eng;
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(parseEngineOpts(opt, &eng));
    if (machine) {
        EXPECT_TRUE(parseMachineFlags(opt, *machine, &eng));
    }
    bool ok = opt.allRead();
    *err = ::testing::internal::GetCapturedStderr();
    return ok;
}

} // namespace

TEST(EngineOpts, DefaultsParse)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.jobs, 1);
    EXPECT_EQ(eng.sim.quantum, 250u);
    EXPECT_EQ(eng.sim.replicas, Replicas::On);
    EXPECT_EQ(eng.sim.checkPeriod, 0u);
}

TEST(EngineOpts, ValidValuesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({"--jobs", "4", "--quantum", "100", "--replicas",
                       "off", "--check", "512"},
                      &eng));
    EXPECT_EQ(eng.jobs, 4);
    EXPECT_EQ(eng.sim.quantum, 100u);
    EXPECT_EQ(eng.sim.replicas, Replicas::Off);
    EXPECT_EQ(eng.sim.checkPeriod, 512u);
    ASSERT_TRUE(parse({"--replicas", "on"}, &eng));
    EXPECT_EQ(eng.sim.replicas, Replicas::On);
}

TEST(EngineOpts, RejectsBadJobCounts)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--jobs", "0"}, &eng));
    EXPECT_FALSE(parse({"--jobs", "-3"}, &eng));
}

TEST(EngineOpts, RejectsBadQuanta)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--quantum", "0"}, &eng));
    EXPECT_FALSE(parse({"--quantum", "-250"}, &eng));
}

TEST(EngineOpts, RejectsNegativeCheck)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--check", "-1"}, &eng));
    // 0 stays meaningful (off).
    EXPECT_TRUE(parse({"--check", "0"}, &eng));
}

// --replicas takes exactly off and on; the retired mode names are
// usage errors (splash2run exits 2), not silent aliases.
TEST(EngineOpts, ReplicasAcceptsExactlyOffAndOn)
{
    EngineOpts eng;
    for (const char* retired : {"inline", "threads", "auto"}) {
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(parse({"--replicas", retired}, &eng)) << retired;
        EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                      "unknown --replicas"),
                  std::string::npos);
    }
    EXPECT_FALSE(parse({"--replicas", "sometimes"}, &eng));
    EXPECT_FALSE(parse({"--replicas", "On"}, &eng));
    EXPECT_TRUE(parse({"--replicas", "off"}, &eng));
    EXPECT_TRUE(parse({"--replicas", "on"}, &eng));
}

TEST(EngineOpts, ProtocolNamesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.protocol, splash::sim::ProtocolKind::MESI);
    ASSERT_TRUE(parse({"--protocol", "msi"}, &eng));
    EXPECT_EQ(eng.sim.protocol, splash::sim::ProtocolKind::MSI);
    ASSERT_TRUE(parse({"--protocol", "mesi"}, &eng));
    EXPECT_EQ(eng.sim.protocol, splash::sim::ProtocolKind::MESI);
    ASSERT_TRUE(parse({"--protocol", "moesi"}, &eng));
    EXPECT_EQ(eng.sim.protocol, splash::sim::ProtocolKind::MOESI);
    ASSERT_TRUE(parse({"--protocol", "dragon"}, &eng));
    EXPECT_EQ(eng.sim.protocol, splash::sim::ProtocolKind::Dragon);
}

TEST(EngineOpts, RejectsUnknownProtocols)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--protocol", "mosi"}, &eng));
    EXPECT_FALSE(eng.listRequested) << "an error is not a listing";
    // Names are exact and lowercase; no case folding, no prefixes.
    EXPECT_FALSE(parse({"--protocol", "MESI"}, &eng));
    EXPECT_FALSE(parse({"--protocol", "mes"}, &eng));
    EXPECT_FALSE(parse({"--protocol", ""}, &eng));
}

TEST(EngineOpts, RaceGranularitiesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Off);
    ASSERT_TRUE(parse({"--race", "off"}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Off);
    ASSERT_TRUE(parse({"--race", "word"}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Word);
    ASSERT_TRUE(parse({"--race", "line"}, &eng));
    EXPECT_EQ(eng.sim.race, splash::sim::RaceGranularity::Line);
}

TEST(EngineOpts, RejectsUnknownRaceGranularities)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--race", "byte"}, &eng));
    EXPECT_FALSE(parse({"--race", "on"}, &eng));
    // Names are exact and lowercase, like --protocol.
    EXPECT_FALSE(parse({"--race", "Word"}, &eng));
    EXPECT_FALSE(parse({"--race", "wordline"}, &eng));
    EXPECT_FALSE(parse({"--race", ""}, &eng));
}

TEST(EngineOpts, SweepModesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Exact);
    EXPECT_FALSE(eng.sweepRequested)
        << "only an explicit --sweep turns splash2run into a sweep";
    ASSERT_TRUE(parse({"--sweep", "exact"}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Exact);
    EXPECT_TRUE(eng.sweepRequested);
    ASSERT_TRUE(parse({"--sweep", "model"}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Model);
    ASSERT_TRUE(parse({"--sweep", "both"}, &eng));
    EXPECT_EQ(eng.sim.sweep, splash::sim::SweepMode::Both);
}

TEST(EngineOpts, RejectsUnknownSweepModes)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--sweep", "analytic"}, &eng));
    EXPECT_FALSE(eng.listRequested) << "an error is not a listing";
    // Names are exact and lowercase, like --protocol and --race.
    EXPECT_FALSE(parse({"--sweep", "Model"}, &eng));
    EXPECT_FALSE(parse({"--sweep", "exactmodel"}, &eng));
    EXPECT_FALSE(parse({"--sweep", ""}, &eng));
}

TEST(EngineOpts, RecordAndReplayLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_TRUE(eng.sim.record.empty());
    EXPECT_TRUE(eng.sim.replay.empty());

    // --record creates a missing store directory up front.
    const std::string dir =
        ::testing::TempDir() + "cli_record_" + std::to_string(::getpid());
    ASSERT_TRUE(parse({"--record", dir}, &eng));
    EXPECT_EQ(eng.sim.record, dir);
    struct stat st{};
    ASSERT_EQ(::stat(dir.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));

    // --replay accepts any existing path (directory store or file).
    eng = EngineOpts{};
    ASSERT_TRUE(parse({"--replay", dir}, &eng));
    EXPECT_EQ(eng.sim.replay, dir);
    EXPECT_TRUE(eng.sim.record.empty());
}

TEST(EngineOpts, RecordReplayMutuallyExclusive)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--record", ::testing::TempDir(), "--replay",
                        ::testing::TempDir()},
                       &eng));
}

TEST(EngineOpts, ReplayRejectsNonexistentPath)
{
    EngineOpts eng;
    EXPECT_FALSE(
        parse({"--replay", "/nonexistent/trace/store"}, &eng));
}

TEST(EngineOpts, RecordRejectsUncreatablePath)
{
    // A path under a regular file can never become a directory, so
    // this fails even when running as root (where plain W_OK checks
    // always pass).
    EngineOpts eng;
    EXPECT_FALSE(parse({"--record", "/dev/null/store"}, &eng));
}

TEST(EngineOpts, InterconnectNamesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.sim.interconnect, splash::sim::Interconnect::Directory);
    EXPECT_FALSE(eng.interconnectRequested);
    ASSERT_TRUE(parse({"--interconnect", "directory"}, &eng));
    EXPECT_EQ(eng.sim.interconnect, splash::sim::Interconnect::Directory);
    EXPECT_TRUE(eng.interconnectRequested);
    ASSERT_TRUE(parse({"--interconnect", "bus"}, &eng));
    EXPECT_EQ(eng.sim.interconnect, splash::sim::Interconnect::Bus);
    EXPECT_TRUE(eng.interconnectRequested);
}

TEST(EngineOpts, RejectsUnknownInterconnects)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--interconnect", "crossbar"}, &eng));
    // Names are exact and lowercase, like --protocol.
    EXPECT_FALSE(parse({"--interconnect", "Bus"}, &eng));
    EXPECT_FALSE(parse({"--interconnect", ""}, &eng));
}

// Contradictory mode combinations are rejected up front -- one
// harness or mode owns the whole run, so combining two would silently
// ignore one.  Every rejection carries the same message shape.
TEST(EngineOpts, ModeConflictMatrixRejected)
{
    const std::string dir = ::testing::TempDir();
    // Each injection harness conflicts with every other run mode.
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--race-inject",
                                "all"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--sweep", "exact"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--race", "word"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "all", "--replay", dir}));
    EXPECT_FALSE(
        parseAndCheck({"--race-inject", "all", "--sweep", "model"}));
    EXPECT_FALSE(
        parseAndCheck({"--race-inject", "all", "--race", "line"}));
    EXPECT_FALSE(
        parseAndCheck({"--race-inject", "all", "--replay", dir}));
    // The working-set sweep models cache capacity only.
    EXPECT_FALSE(parseAndCheck({"--interconnect", "bus", "--sweep",
                                "exact"}));
    // The sweep's grid fixes capacity and associativity.
    EXPECT_FALSE(parseAndCheck({"--sweep", "exact", "--cachekb", "64"}));
    EXPECT_FALSE(parseAndCheck({"--assoc", "2", "--sweep", "model"}));
    // The coherence checker needs a memory system to audit.
    EXPECT_FALSE(parseAndCheck({"--check", "100", "--sweep", "exact"}));
    EXPECT_FALSE(parseAndCheck({"--sweep", "model", "--check", "1"}));
    EXPECT_FALSE(parseAndCheck({"--check", "100", "--nomem"}));
    // A named fault kind must target the configured interconnect.
    EXPECT_FALSE(parseAndCheck({"--inject", "dropped-inval",
                                "--interconnect", "bus"}));
    EXPECT_FALSE(parseAndCheck({"--inject", "double-owner"}));
    // ...while the matching pairings and 'all' stay runnable.
    EXPECT_TRUE(parseAndCheck({"--inject", "all"}));
    EXPECT_TRUE(parseAndCheck({"--inject", "all", "--interconnect",
                               "bus"}));
    EXPECT_TRUE(parseAndCheck({"--inject", "dropped-inval"}));
    EXPECT_TRUE(parseAndCheck({"--inject", "double-owner",
                               "--interconnect", "bus"}));
    EXPECT_TRUE(parseAndCheck({"--race-inject", "all"}));
    EXPECT_TRUE(parseAndCheck({"--interconnect", "bus", "--race",
                               "word"}));
    EXPECT_TRUE(parseAndCheck({"--interconnect", "directory",
                               "--sweep", "exact"}));
    EXPECT_TRUE(parseAndCheck({"--check", "100"}));
    EXPECT_TRUE(parseAndCheck({"--check", "0", "--sweep", "exact"}));
    EXPECT_TRUE(parseAndCheck({"--sweep", "both", "--race", "word"}));
    EXPECT_TRUE(parseAndCheck({"--sweep", "both", "--line", "128"}));
    EXPECT_TRUE(parseAndCheck({"--cachekb", "64", "--assoc", "2"}));
}

// All contradictory combinations -- including --record with --replay,
// rejected inside parseEngineOpts itself -- share one diagnostic
// shape, so scripts can grep a single prefix.
TEST(EngineOpts, ConflictDiagnosticsShareOneShape)
{
    const std::string dir = ::testing::TempDir();
    const std::vector<std::vector<std::string>> combos = {
        {"--inject", "all", "--race", "word"},
        {"--race-inject", "all", "--sweep", "exact"},
        {"--interconnect", "bus", "--sweep", "both"},
        {"--inject", "ghost-exclusive"},
        {"--check", "100", "--sweep", "exact"},
        {"--sweep", "both", "--cachekb", "64"},
        {"--sweep", "exact", "--assoc", "2"},
        {"--check", "100", "--nomem"},
        {"--record", dir + "cli_conflict_store", "--replay", dir},
    };
    for (const auto& combo : combos) {
        std::string err;
        EXPECT_FALSE(parseAndCheck(combo, &err));
        EXPECT_EQ(err.rfind("conflicting flags: ", 0), 0u)
            << "diagnostic for " << combo[0]
            << " does not share the uniform shape: " << err;
    }
}

// --protocol list is informational: the parse "fails" so the caller
// stops, but listRequested distinguishes exit 0 from a usage error.
TEST(EngineOpts, ProtocolListIsInformationalNotAnError)
{
    EngineOpts eng;
    ::testing::internal::CaptureStdout();
    EXPECT_FALSE(parse({"--protocol", "list"}, &eng));
    std::string zoo = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(eng.listRequested);
    for (int k = 0; k < splash::sim::kNumProtocols; ++k)
        EXPECT_NE(zoo.find(splash::sim::protocolName(
                      static_cast<splash::sim::ProtocolKind>(k))),
                  std::string::npos)
            << "zoo listing is missing protocol " << k;
}

// Non-numeric and partially-numeric values must terminate with an
// error (exit 1) instead of truncating ("2x" -> 2) or throwing an
// unhandled std::invalid_argument out of main().
TEST(EngineOptsDeathTest, NumericGarbageIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EngineOpts eng;
    EXPECT_EXIT(parse({"--jobs", "many"}, &eng),
                ::testing::ExitedWithCode(1), "expects an integer");
    EXPECT_EXIT(parse({"--quantum", "2x"}, &eng),
                ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(OptionsDeathTest, NonNumericDoubleIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Options opt = optionsFor({"--scale", "1.5x"});
    EXPECT_EXIT(opt.getD("scale", 1.0), ::testing::ExitedWithCode(1),
                "expects a number");
}

// A flag no lookup asks for is an error, not a silent no-op: a typo
// such as --replica would otherwise run the default, and --sweep
// would change nothing on a binary that runs no sweep.  Machine flags
// are read only up to the level a binary honours: none (PRAM-only
// runs and the sweeps), --check (interconnect_traffic, which runs
// every protocol and interconnect itself), --check and --protocol
// (the benches of one machine), or all three (splash2run).  The
// retired --sweep-threads stays accepted, because existing benchmark
// command lines pass `--sweep-threads 1` on every run.
TEST(Options, FlagsNothingReadsAreRejected)
{
    std::string err;
    EXPECT_TRUE(engineFlagsOnly({"--jobs", "1", "--replicas", "off",
                                 "--sweep-threads", "1"},
                                &err));
    EXPECT_EQ(err, "");
    EXPECT_FALSE(engineFlagsOnly({"--replica", "off"}, &err));
    EXPECT_EQ(err, "unknown flag --replica\n");
    EXPECT_FALSE(engineFlagsOnly({"--bogus-flag", "3", "--jobs", "2"}, &err));
    EXPECT_EQ(err, "unknown flag --bogus-flag\n");
    EXPECT_FALSE(engineFlagsOnly({"--quick", "--seed", "7"}, &err));
    EXPECT_EQ(err, "unknown flag --quick\nunknown flag --seed\n");
    EXPECT_FALSE(engineFlagsOnly({"--sweep", "model"}, &err));
    EXPECT_EQ(err, "unknown flag --sweep\n");
    // `--key=value` is not this parser's syntax, and a bare word is no
    // flag at all.
    EXPECT_FALSE(engineFlagsOnly({"--jobs=2"}, &err));
    EXPECT_EQ(err, "unknown flag --jobs=2\n");
    EXPECT_FALSE(engineFlagsOnly({"fft"}, &err));
    EXPECT_EQ(err, "unexpected argument 'fft'\n");

    const std::vector<std::string> machine = {
        "--check", "5", "--protocol", "msi", "--interconnect", "bus"};
    EXPECT_FALSE(engineFlagsOnly(machine, &err));
    EXPECT_EQ(err, "unknown flag --check\nunknown flag --interconnect\n"
                   "unknown flag --protocol\n");
    EXPECT_FALSE(engineFlagsOnly(machine, &err, MachineFlags::Check));
    EXPECT_EQ(err, "unknown flag --interconnect\nunknown flag --protocol\n");
    EXPECT_FALSE(engineFlagsOnly(machine, &err, MachineFlags::Protocol));
    EXPECT_EQ(err, "unknown flag --interconnect\n");
    EXPECT_TRUE(engineFlagsOnly(machine, &err, MachineFlags::Interconnect));
    EXPECT_EQ(err, "");
}

#ifdef SPLASH2_BINARY_DIR
namespace {

/** Exit status of @p cmd, a space-separated command line whose
 *  program is relative to the build tree, with its stderr in @p err;
 *  -1 when it could not start or did not exit normally. */
int
runBinary(const std::string& cmd, std::string* err)
{
    std::vector<std::string> words;
    std::istringstream split(std::string(SPLASH2_BINARY_DIR) + "/" + cmd);
    for (std::string w; split >> w;)
        words.push_back(w);
    std::vector<char*> argv;
    for (std::string& w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);

    const std::string errFile = ::testing::TempDir() + "cli_stderr_" +
                                std::to_string(::getpid());
    posix_spawn_file_actions_t io{};
    posix_spawn_file_actions_init(&io);
    posix_spawn_file_actions_addopen(&io, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&io, 2, errFile.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, argv[0], &io, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&io);
    int status = 0;
    if (spawned != 0 || ::waitpid(pid, &status, 0) != pid)
        return -1;
    std::ifstream in(errFile);
    std::stringstream ss;
    ss << in.rdbuf();
    *err = ss.str();
    (void)std::remove(errFile.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

// End to end: splash2run and all twelve figure/table benches exit 2
// with the diagnostic before simulating anything; so does every bench
// but fig3_working_sets given --sweep, which only it and splash2run
// read, every bench given --interconnect, which only splash2run reads,
// and each bench given a --protocol or --check it does not honour.
TEST(UnknownFlags, EveryBinaryExitsTwo)
{
    std::vector<std::pair<std::string, std::string>> cases = {
        {"src/splash2run --app fft --bogus-flag 3", "--bogus-flag"},
        {"src/splash2run --app fft --replica off", "--replica"},
        {"bench/fig4_traffic --quick --seed 7", "--seed"},
        {"bench/fig6_small_cache --quick --app fft", "--app"},
    };
    // The benches that build no memory system, then the one that runs
    // every protocol itself.
    const std::vector<std::string> noCheck = {
        "fig1_speedups", "fig2_synchronization", "fig3_working_sets",
        "table1_characterization", "table2_working_sets"};
    const std::string zoo = "interconnect_traffic";
    for (const char* b :
         {"fig1_speedups", "fig2_synchronization", "fig3_working_sets",
          "fig4_traffic", "fig5_ocean_scaling", "fig6_small_cache",
          "fig7_miss_classification", "table1_characterization",
          "table2_working_sets", "table3_comm_comp", "ablation_protocol",
          "interconnect_traffic"}) {
        const std::string bin = std::string("bench/") + b;
        cases.push_back({bin + " --quick --bogus", "--bogus"});
        if (bin != "bench/fig3_working_sets")
            cases.push_back({bin + " --quick --sweep model", "--sweep"});
        cases.push_back(
            {bin + " --quick --interconnect bus", "--interconnect"});
        const bool checks =
            std::find(noCheck.begin(), noCheck.end(), b) == noCheck.end();
        if (!checks)
            cases.push_back({bin + " --quick --check 100", "--check"});
        if (!checks || b == zoo)
            cases.push_back({bin + " --quick --protocol msi", "--protocol"});
    }
    for (const auto& [cmd, flag] : cases) {
        std::string err;
        EXPECT_EQ(runBinary(cmd, &err), 2) << cmd;
        EXPECT_EQ(err, "unknown flag " + flag + "\n") << cmd;
    }
    // A cache geometry flag beside --sweep is a conflict, not ignored.
    std::string err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 "
                        "--sweep exact --cachekb 64 --assoc 2",
                        &err),
              2);
    EXPECT_EQ(err.rfind("conflicting flags: --cachekb and --sweep", 0), 0u)
        << err;
    // The accepted spellings still run.
    EXPECT_EQ(runBinary("src/splash2run --list", &err), 0);
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 "
                        "--jobs 1 --replicas off --sweep-threads 1",
                        &err),
              0)
        << err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 "
                        "--protocol msi --interconnect bus --check 100",
                        &err),
              0)
        << err;
    EXPECT_EQ(runBinary("src/splash2run --protocol list", &err), 0);
    EXPECT_EQ(runBinary("bench/fig5_ocean_scaling --procs 2 --n1 8 "
                        "--n2 8 --protocol moesi --check 100",
                        &err),
              0)
        << err;
    EXPECT_EQ(runBinary("bench/ablation_protocol --protocol list", &err),
              0);
    EXPECT_EQ(runBinary("bench/interconnect_traffic --app fft --procs 2 "
                        "--scale 0.05 --check 100",
                        &err),
              0)
        << err;
}

// The sweep and the memory system share one line-size floor: a 4-byte
// line is refused with the same diagnostic whichever one runs.
TEST(LineSize, SweepAndMemorySystemShareTheFloor)
{
    for (const char* sweep : {"", " --sweep exact", " --sweep model"}) {
        const std::string cmd =
            std::string("src/splash2run --app fft --procs 4 --scale 0.1 "
                        "--line 4") +
            sweep;
        std::string err;
        EXPECT_EQ(runBinary(cmd, &err), 1) << cmd;
        EXPECT_EQ(err, "fatal: line size must be in [8, size]\n") << cmd;
    }
    std::string err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 4 --scale 0.1 "
                        "--line 8 --sweep exact",
                        &err),
              0)
        << err;
}
#endif
