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
           parseSweepFlag(opt, out) && parseRaceFlag(opt, out);
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
              parseSweepFlag(opt, &eng) && parseRaceFlag(opt, &eng) &&
              checkModeConflicts(opt, eng);
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

// --jobs is read through getInRange: out of [1, INT_MAX] it exits 2
// naming the flag (2^32, which used to wrap to 0, is a case of
// SizeOutOfRangeExitsTwoBeforeAnythingRuns).
TEST(EngineOptsDeathTest, RejectsBadJobCounts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EngineOpts eng;
    EXPECT_EXIT(parse({"--jobs", "0"}, &eng), ::testing::ExitedWithCode(2),
                "--jobs must be >= 1 \\(got 0\\)");
    EXPECT_EXIT(parse({"--jobs", "-3"}, &eng), ::testing::ExitedWithCode(2),
                "--jobs must be >= 1 \\(got -3\\)");
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
    EXPECT_EQ(eng.machine.protocol, splash::sim::ProtocolKind::MESI);
    ASSERT_TRUE(parse({"--protocol", "msi"}, &eng));
    EXPECT_EQ(eng.machine.protocol, splash::sim::ProtocolKind::MSI);
    ASSERT_TRUE(parse({"--protocol", "mesi"}, &eng));
    EXPECT_EQ(eng.machine.protocol, splash::sim::ProtocolKind::MESI);
    ASSERT_TRUE(parse({"--protocol", "moesi"}, &eng));
    EXPECT_EQ(eng.machine.protocol, splash::sim::ProtocolKind::MOESI);
    ASSERT_TRUE(parse({"--protocol", "dragon"}, &eng));
    EXPECT_EQ(eng.machine.protocol, splash::sim::ProtocolKind::Dragon);
}

TEST(EngineOpts, RejectsUnknownProtocols)
{
    EngineOpts eng;
    EXPECT_FALSE(parse({"--protocol", "mosi"}, &eng));
    // Names are exact and lowercase; no case folding, no prefixes.
    EXPECT_FALSE(parse({"--protocol", "MESI"}, &eng));
    EXPECT_FALSE(parse({"--protocol", "mes"}, &eng));
    EXPECT_FALSE(parse({"--protocol", ""}, &eng));
}

TEST(EngineOpts, RaceGranularitiesLand)
{
    EngineOpts eng;
    ASSERT_TRUE(parse({}, &eng));
    EXPECT_EQ(eng.race, splash::sim::RaceGranularity::Off);
    ASSERT_TRUE(parse({"--race", "off"}, &eng));
    EXPECT_EQ(eng.race, splash::sim::RaceGranularity::Off);
    ASSERT_TRUE(parse({"--race", "word"}, &eng));
    EXPECT_EQ(eng.race, splash::sim::RaceGranularity::Word);
    ASSERT_TRUE(parse({"--race", "line"}, &eng));
    EXPECT_EQ(eng.race, splash::sim::RaceGranularity::Line);
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
    EXPECT_EQ(eng.machine.interconnect, splash::sim::Interconnect::Directory);
    ASSERT_TRUE(parse({"--interconnect", "directory"}, &eng));
    EXPECT_EQ(eng.machine.interconnect, splash::sim::Interconnect::Directory);
    ASSERT_TRUE(parse({"--interconnect", "bus"}, &eng));
    EXPECT_EQ(eng.machine.interconnect, splash::sim::Interconnect::Bus);
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

// --protocol list is informational: the parser prints the zoo and
// exits 0 where it reads the flag, as selectApps() exits on an unknown
// program, so no caller has to tell it from a usage error.
TEST(EngineOptsDeathTest, ProtocolListIsInformationalNotAnError)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EngineOpts eng;
    EXPECT_EXIT(parse({"--protocol", "list"}, &eng),
                ::testing::ExitedWithCode(0), "");
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

// A flag with no value after it is a switch: has() answers for it,
// and asking for its value is an error, never a made-up "1".
TEST(OptionsDeathTest, ValuedFlagWithoutValueIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Options opt = optionsFor({"--procs", "--quick", "--csv"});
    EXPECT_TRUE(opt.has("procs"));
    EXPECT_TRUE(opt.has("quick"));
    EXPECT_TRUE(opt.has("csv"));
    EXPECT_EXIT(opt.getI("procs", 32), ::testing::ExitedWithCode(1),
                "option --procs expects a value");
    EXPECT_EXIT(opt.getD("quick", 1.0), ::testing::ExitedWithCode(1),
                "option --quick expects a value");
    EXPECT_EXIT(opt.getS("csv", ""), ::testing::ExitedWithCode(1),
                "option --csv expects a value");
}

// A switch takes no value: flag() is fatal when one follows, where
// has() would have answered true and dropped it.  has() still answers
// for a valued flag.
TEST(OptionsDeathTest, SwitchGivenAValueIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Options opt =
        optionsFor({"--quick", "1", "--nomem", "--sweep", "model"});
    EXPECT_TRUE(opt.flag("nomem"));
    EXPECT_FALSE(opt.flag("nohints"));
    EXPECT_TRUE(opt.has("sweep"));
    EXPECT_EXIT(opt.flag("quick"), ::testing::ExitedWithCode(1),
                "option --quick takes no value");
}

// A flag no lookup asks for is an error, not a silent no-op: a typo
// such as --replica would otherwise run the default, and --sweep
// would change nothing on a binary that runs no sweep.  Machine flags
// are read only up to the level a binary honours: none (PRAM-only
// runs and the sweeps), --check (interconnect_traffic, which runs
// every protocol and interconnect itself), --check and --protocol
// (the benches of one machine), or all three (splash2run).  --race
// and the retired --sweep-threads are splash2run's alone, so the
// shared engine flags leave them unread.
TEST(Options, FlagsNothingReadsAreRejected)
{
    std::string err;
    EXPECT_TRUE(engineFlagsOnly({"--jobs", "1", "--replicas", "off"},
                                &err));
    EXPECT_EQ(err, "");
    EXPECT_FALSE(engineFlagsOnly({"--sweep-threads", "1"}, &err));
    EXPECT_EQ(err, "unknown flag --sweep-threads\n");
    EXPECT_FALSE(engineFlagsOnly({"--race", "word"}, &err));
    EXPECT_EQ(err, "unknown flag --race\n");
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

/** The contents of the file at @p path ("" when there is none). */
std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Exit status of @p cmd, a space-separated command line whose
 *  program is relative to the build tree, with its stderr in @p err
 *  and, when @p out is given, its stdout in @p out; -1 when it could
 *  not start or did not exit normally. */
int
runBinary(const std::string& cmd, std::string* err,
          std::string* out = nullptr)
{
    std::vector<std::string> words;
    std::istringstream split(std::string(SPLASH2_BINARY_DIR) + "/" + cmd);
    for (std::string w; split >> w;)
        words.push_back(w);
    std::vector<char*> argv;
    for (std::string& w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);

    const std::string tmp =
        ::testing::TempDir() + "cli_" + std::to_string(::getpid());
    const std::string errFile = tmp + "_stderr";
    const std::string outFile = out ? tmp + "_stdout" : "/dev/null";
    posix_spawn_file_actions_t io{};
    posix_spawn_file_actions_init(&io);
    posix_spawn_file_actions_addopen(&io, 1, outFile.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&io, 2, errFile.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, argv[0], &io, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&io);
    int status = 0;
    if (spawned != 0 || ::waitpid(pid, &status, 0) != pid)
        return -1;
    *err = slurp(errFile);
    (void)std::remove(errFile.c_str());
    if (out) {
        *out = slurp(outFile);
        (void)std::remove(outFile.c_str());
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

// End to end: splash2run and all twelve figure/table benches exit 2
// with the diagnostic before simulating anything; so does every bench
// but fig3_working_sets given --sweep, which only it and splash2run
// read, every bench given --interconnect, --race or --sweep-threads,
// which only splash2run reads, and each bench given a --protocol or
// --check it does not honour.
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
        cases.push_back({bin + " --quick --race word", "--race"});
        cases.push_back(
            {bin + " --quick --sweep-threads 1", "--sweep-threads"});
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
                        "--race word",
                        &err),
              0)
        << err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 "
                        "--protocol msi --interconnect bus --check 100",
                        &err),
              0)
        << err;
    std::string listing;
    EXPECT_EQ(runBinary("src/splash2run --protocol list", &err, &listing),
              0);
    for (int k = 0; k < splash::sim::kNumProtocols; ++k)
        EXPECT_NE(listing.find(splash::sim::protocolName(
                      static_cast<splash::sim::ProtocolKind>(k))),
                  std::string::npos)
            << "zoo listing is missing protocol " << k;
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

// A valued flag given with no value fails with a diagnostic before
// anything runs, instead of reading a made-up "1": one processor for
// --procs, a CSV file named 1 for --csv.
TEST(ValuedFlags, MissingValueFailsBeforeAnythingRuns)
{
    std::string err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs --scale 0.1",
                        &err),
              1);
    EXPECT_EQ(err, "fatal: option --procs expects a value\n");
    EXPECT_EQ(runBinary("bench/fig7_miss_classification --procs --quick",
                        &err),
              1);
    EXPECT_EQ(err, "fatal: option --procs expects a value\n");
    const bool hadOne = ::access("1", F_OK) == 0;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 "
                        "--race line --csv",
                        &err),
              1);
    EXPECT_EQ(err, "fatal: option --csv expects a value\n");
    EXPECT_EQ(runBinary("bench/fig1_speedups --app fft --maxprocs 2 "
                        "--scale 0.05 --csv",
                        &err),
              1);
    EXPECT_EQ(err, "fatal: option --csv expects a value\n");
    if (!hadOne) {
        EXPECT_NE(::access("1", F_OK), 0) << "a CSV file named 1";
    }
}

// A switch given a value fails instead of dropping it: `--nomem 0`
// would run without a memory system, `--quick 1` at the quick size.
TEST(ValuedFlags, SwitchGivenAValueFails)
{
    std::string err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 "
                        "--nomem 0",
                        &err),
              1);
    EXPECT_EQ(err, "fatal: option --nomem takes no value\n");
    EXPECT_EQ(runBinary("bench/fig2_synchronization --quick 1", &err), 1);
    EXPECT_EQ(err, "fatal: option --quick takes no value\n");
}

// An --app no program answers to is refused before anything runs,
// not run as an empty table.
TEST(ValuedFlags, UnknownAppExitsTwoBeforeAnythingRuns)
{
    for (const char* b :
         {"fig1_speedups", "fig2_synchronization", "fig3_working_sets",
          "fig4_traffic", "fig7_miss_classification",
          "table1_characterization", "ablation_protocol",
          "interconnect_traffic"}) {
        const std::string cmd =
            std::string("bench/") + b + " --app nosuch --quick";
        std::string err, out;
        EXPECT_EQ(runBinary(cmd, &err, &out), 2) << cmd;
        EXPECT_EQ(err, "unknown --app 'nosuch'\n") << cmd;
        EXPECT_EQ(out, "") << cmd;
    }
}

// A size flag out of range is refused with exit 2 and a message
// naming it before anything runs, as --jobs 0 is: not a crash on an
// empty processor list, an empty table, Ocean's default grid for
// --n1 0, a diagnostic about a table's P/2 or 4P column (or a
// figure's P=128 one) after other runs, a library diagnostic that
// names no flag for --procs 0 or 65, or Ocean's multigrid failing
// inside a job on a grid that is not a power of two.
TEST(ValuedFlags, SizeOutOfRangeExitsTwoBeforeAnythingRuns)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"bench/fig1_speedups --app fft --quick --maxprocs 0",
         "--maxprocs must be >= 1 (got 0)\n"},
        {"bench/fig1_speedups --app fft --quick --maxprocs -4",
         "--maxprocs must be >= 1 (got -4)\n"},
        {"bench/fig1_speedups --app fft --quick --maxprocs 200",
         "--maxprocs must be <= 64 (got 200)\n"},
        {"bench/fig4_traffic --maxprocs 0",
         "--maxprocs must be >= 1 (got 0)\n"},
        {"bench/fig6_small_cache --maxprocs 0",
         "--maxprocs must be >= 1 (got 0)\n"},
        {"bench/fig5_ocean_scaling --n1 0", "--n1 must be >= 4 (got 0)\n"},
        {"bench/fig5_ocean_scaling --n1 6",
         "--n1 must be a power of two (got 6)\n"},
        {"bench/fig5_ocean_scaling --n2 100",
         "--n2 must be a power of two (got 100)\n"},
        {"bench/fig2_synchronization --procs 0 --app fft",
         "--procs must be >= 1 (got 0)\n"},
        {"bench/fig3_working_sets --procs 0 --app fft",
         "--procs must be >= 1 (got 0)\n"},
        {"bench/fig5_ocean_scaling --procs 65",
         "--procs must be <= 64 (got 65)\n"},
        {"bench/fig7_miss_classification --procs 0 --app fft",
         "--procs must be >= 1 (got 0)\n"},
        {"bench/table1_characterization --procs 65 --app fft",
         "--procs must be <= 64 (got 65)\n"},
        {"bench/ablation_protocol --procs -2 --app fft",
         "--procs must be >= 1 (got -2)\n"},
        {"bench/interconnect_traffic --procs 65 --app fft",
         "--procs must be <= 64 (got 65)\n"},
        {"src/splash2run --procs 65 --app fft",
         "--procs must be <= 64 (got 65)\n"},
        {"src/splash2run --procs 0 --app fft --nomem",
         "--procs must be >= 1 (got 0)\n"},
        {"bench/table2_working_sets --quick --procs 1",
         "--procs must be >= 2 (got 1)\n"},
        {"bench/table3_comm_comp --quick --procs 32",
         "--procs must be <= 16 (got 32)\n"},
        // Cache geometry: powers of two, a line in [8, cache bytes]
        // ([8, 1 KB] under a sweep), an associativity of 0 or one that
        // divides the line count, and a line count an int can hold.
        {"src/splash2run --app fft --procs 2 --n 4 --cachekb 3",
         "--cachekb must be a power of two (got 3)\n"},
        {"src/splash2run --app fft --procs 1 --n 4 --cachekb 4294967296",
         "--cachekb must be <= 8388608 (got 4294967296)\n"},
        {"src/splash2run --app fft --procs 1 --n 4 --cachekb 2147483648",
         "--cachekb must be <= 8388608 (got 2147483648)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --line 0",
         "--line must be >= 8 (got 0)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --line 100000",
         "--line must be a power of two (got 100000)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --cachekb 1 --line 2048",
         "--line must be <= 1024 (got 2048)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --sweep exact --line 2048",
         "--line must be <= 1024 (got 2048)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --assoc 3",
         "--assoc must be a power of two (got 3)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --assoc 32768",
         "--assoc must be <= 16384 (got 32768)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --assoc -1",
         "--assoc must be >= 0 (got -1)\n"},
        {"bench/ablation_protocol --cachekb 0",
         "--cachekb must be >= 1 (got 0)\n"},
        {"bench/fig4_traffic --cachekb 0", "--cachekb must be >= 1 (got 0)\n"},
        {"bench/fig6_small_cache --cachekb 12",
         "--cachekb must be a power of two (got 12)\n"},
        {"bench/fig3_working_sets --line 4", "--line must be >= 8 (got 4)\n"},
        {"bench/fig3_working_sets --line 2048",
         "--line must be <= 1024 (got 2048)\n"},
        // A seed or a job count does not wrap around: 2^32 is not seed
        // 0, and 2^32 jobs are not 0 ("every CPU").
        {"src/splash2run --app fft --procs 2 --n 4 --seed 4294967296",
         "--seed must be <= 4294967295 (got 4294967296)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --seed -1",
         "--seed must be >= 0 (got -1)\n"},
        {"src/splash2run --app fft --procs 2 --n 4 --jobs 4294967296",
         "--jobs must be <= 2147483647 (got 4294967296)\n"},
        {"bench/fig4_traffic --quick --jobs 4294967296",
         "--jobs must be <= 2147483647 (got 4294967296)\n"},
    };
    for (const auto& [cmd, want] : cases) {
        std::string err, out;
        EXPECT_EQ(runBinary(cmd, &err, &out), 2) << cmd;
        EXPECT_EQ(err, want) << cmd;
        EXPECT_EQ(out, "") << cmd;
    }
}

// A problem size a program cannot build is a user error: it exits 1
// with a fatal diagnostic before any report, not with a division by
// zero (radix 1, SIGFPE) or a panic's abort (exit 134).
TEST(ValuedFlags, UnbuildableProblemSizesAreFatal)
{
    const std::string radix =
        "fatal: Radix: radix must be a power of two >= 2\n";
    const std::string arena =
        "fatal: shared-heap arena exhausted: the problem's shared data "
        "exceeds the 1024 MB arena\n";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"--app radix --aux 1", radix},
        {"--app radix --aux 3", radix},
        {"--app volrend --n 2",
         "fatal: Volrend: size must be a power of two >= 8\n"},
        {"--app fft --n 40", arena},
        {"--app raytrace --n 100000", arena},
    };
    for (const auto& [args, want] : cases) {
        const std::string cmd = "src/splash2run --procs 2 " + args;
        std::string err, out;
        EXPECT_EQ(runBinary(cmd, &err, &out), 1) << cmd;
        EXPECT_EQ(err, want) << cmd;
        EXPECT_EQ(out, "") << cmd;
    }
}

// --csv FILE never changes stdout: each bench that exports CSV prints
// the text report it prints without the flag, and FILE gets the same
// results as CSV rows, from the same run.
TEST(CsvFlag, TextOnStdoutAndRowsInTheFile)
{
    const std::string csv = ::testing::TempDir() + "cli_csv_" +
                            std::to_string(::getpid()) + ".csv";
    const std::vector<std::pair<std::string, std::string>> benches = {
        {"fig1_speedups --app fft --maxprocs 2", "app,procs,speedup\n"},
        {"fig3_working_sets --app fft --procs 2",
         "app,size_bytes,assoc,miss_rate\n"},
        {"fig4_traffic --app fft --maxprocs 2", "app,procs,rem_shared,"},
        {"fig5_ocean_scaling --procs 2 --n1 8 --n2 8",
         "grid,procs,rem_shared,"},
        {"fig6_small_cache --maxprocs 2", "app,procs,cachekb,rem_shared,"},
        {"fig7_miss_classification --app fft --procs 2",
         "app,line,cold,capacity,"},
        {"ablation_protocol --app fft --procs 2",
         "app,protocol,miss_per_1000,"},
        {"interconnect_traffic --app fft --procs 2",
         "app,protocol,interconnect,"},
    };
    for (const auto& [args, header] : benches) {
        // fig5 takes its grids as --n1/--n2, not --scale.
        const std::string cmd =
            "bench/" + args +
            (args.rfind("fig5", 0) == 0 ? "" : " --scale 0.05");
        std::string err, text, withCsv;
        ASSERT_EQ(runBinary(cmd, &err, &text), 0) << cmd << "\n" << err;
        (void)std::remove(csv.c_str());
        ASSERT_EQ(runBinary(cmd + " --csv " + csv, &err, &withCsv), 0)
            << cmd << "\n"
            << err;
        EXPECT_EQ(withCsv, text) << cmd;
        const std::string rows = slurp(csv);
        EXPECT_EQ(rows.rfind(header, 0), 0u) << cmd << "\n" << rows;
        EXPECT_GE(std::count(rows.begin(), rows.end(), '\n'), 2) << cmd;
    }
    (void)std::remove(csv.c_str());
}

// A --csv file that cannot be created, or one that takes no bytes,
// fails before any program runs, on a bench and on splash2run's race
// census alike.
TEST(CsvFlag, UnwritablePathFailsBeforeAnythingRuns)
{
    for (const char* path : {"/dev/null/x.csv", "/dev/full"}) {
        for (const char* bin :
             {"bench/fig7_miss_classification --app fft --procs 2 "
              "--scale 0.05",
              "src/splash2run --app fft --procs 2 --n 4 --race line"}) {
            const std::string cmd = std::string(bin) + " --csv " + path;
            std::string err, out;
            EXPECT_EQ(runBinary(cmd, &err, &out), 1) << cmd;
            EXPECT_EQ(err, std::string("fatal: cannot write --csv file '") +
                               path + "'\n")
                << cmd;
            EXPECT_EQ(out, "") << cmd;
        }
    }
}

// splash2run's one race checker per program takes its line granules
// from --line whichever sink set it rides: the PRAM run (--nomem), the
// memory system, or the working-set sweep.  A line no granule can have,
// or a processor count the vector clocks cannot hold, is a diagnostic
// before anything runs, not an abort or an ignored flag.
TEST(RaceFlag, LineGranulesFollowTheLineFlag)
{
    const std::string csv = ::testing::TempDir() + "race_granule_" +
                            std::to_string(::getpid()) + ".csv";
    for (const char* mode : {" --nomem", "", " --sweep exact"}) {
        const std::string cmd =
            "src/splash2run --app fft --procs 2 --n 4 --race line "
            "--line 32 --csv " +
            csv + mode;
        std::string err;
        ASSERT_EQ(runBinary(cmd, &err), 0) << cmd << "\n" << err;
        std::ifstream in(csv);
        std::string header, row;
        ASSERT_TRUE(std::getline(in, header) && std::getline(in, row))
            << cmd;
        EXPECT_EQ(header.rfind("app,procs,granularity,granule_bytes,", 0),
                  0u)
            << header;
        std::vector<std::string> cells;
        std::istringstream split(row);
        for (std::string c; std::getline(split, c, ',');)
            cells.push_back(c);
        ASSERT_GE(cells.size(), 4u) << row;
        EXPECT_EQ(cells[2], "line") << cmd;
        EXPECT_EQ(cells[3], "32") << cmd;
    }
    (void)std::remove(csv.c_str());
    std::string err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 2 --n 4 --nomem "
                        "--race line --line 3",
                        &err),
              2);
    EXPECT_EQ(err, "--line must be >= 8 (got 3)\n");
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 100 --n 4 "
                        "--nomem --race word",
                        &err),
              2);
    EXPECT_EQ(err, "--procs must be <= 64 (got 100)\n");
}

// The sweep and the memory system share one line-size floor: a 4-byte
// line is refused at the flag whichever one would run.
TEST(LineSize, SweepAndMemorySystemShareTheFloor)
{
    for (const char* sweep : {"", " --sweep exact", " --sweep model"}) {
        const std::string cmd =
            std::string("src/splash2run --app fft --procs 4 --scale 0.1 "
                        "--line 4") +
            sweep;
        std::string err;
        EXPECT_EQ(runBinary(cmd, &err), 2) << cmd;
        EXPECT_EQ(err, "--line must be >= 8 (got 4)\n") << cmd;
    }
    std::string err;
    EXPECT_EQ(runBinary("src/splash2run --app fft --procs 4 --scale 0.1 "
                        "--line 8 --sweep exact",
                        &err),
              0)
        << err;
}
#endif
