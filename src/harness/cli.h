/**
 * @file
 * Engine-related command-line flags of splash2run and the
 * characterization benches.  parseEngineOpts reads the ones every
 * binary shares:
 *
 *   --jobs N          host threads for independent experiments
 *                     (N >= 1; default 1 = serial)
 *   --replicas off|on host threads within one job (default on):
 *                     off keeps the job on one thread, which feeds
 *                     every sink of its one pass directly; on gives
 *                     each sink a thread on a broadcast of that pass
 *                     and splits the sweep into processor-range
 *                     shards, when the process may use more than one
 *                     CPU.  Never more than one pass per program
 *   --quantum N       instrumentation events per scheduling slice;
 *                     sets the interleaving, and with it the results
 *   --record DIR      record each executed (app, P) reference stream
 *                     into trace store DIR (created if missing); an
 *                     already-recorded identity is skipped
 *   --replay DIR      replay reference streams from trace store DIR
 *                     (or a single .s2t file) instead of executing;
 *                     mutually exclusive with --record
 *
 * The rest are read only by the binaries that honour them; anywhere
 * else the flag stays unread and is rejected:
 *
 *   parseMachineFlags, in every binary that simulates a memory
 *   system, up to the level it honours:
 *   --check N         coherence invariant checker sampling period: a
 *                     full directory/cache cross-validation every N
 *                     slow-path transactions (0 = off, the default);
 *                     splash2run, fig4-7, table3, ablation_protocol
 *                     and interconnect_traffic
 *   --protocol NAME   coherence protocol of the simulated machine:
 *                     msi | mesi | moesi | dragon (default mesi), or
 *                     "list" to print the protocol zoo and exit; the
 *                     same binaries but interconnect_traffic, which
 *                     runs the whole zoo
 *   --interconnect K  interconnect organization of the simulated
 *                     machine: directory | bus (default directory);
 *                     splash2run only.  Bus mode snoops the tag arrays
 *                     instead of consulting a directory and accounts
 *                     address/data bus occupancy instead of packet
 *                     bytes
 *
 *   parseSweepFlag, in splash2run and fig3_working_sets:
 *   --sweep MODE      working-set sweep engine: exact | model | both
 *                     (default exact).  model predicts the Figure-3
 *                     curves from the sweep's fully associative
 *                     profile instead of simulating the finite
 *                     columns; both runs the two and reports
 *                     model-vs-exact error
 *
 *   splash2run alone, the one binary that prints a race verdict:
 *   --race GRAN       parseRaceFlag: happens-before race detection,
 *                     off | word | line (default off), one checker
 *                     per program pass, line granules of --line bytes
 *   --sweep-threads N read and ignored: a retired knob that the
 *                     benchmark's command lines still pass
 *
 * --jobs, --replicas, --record and --replay change wall clock only and
 * --check and --race only observe: the statistics are identical for
 * any combination (--jobs 1 --replicas off is the serial differential
 * oracle).  --protocol, --interconnect and --quantum select the
 * machine and its interleaving, so they change results by design
 * (every committed result uses quantum 250).  Invalid values are
 * rejected with an error rather than silently falling back,
 * contradictory flag combinations are rejected up front with one
 * uniform message shape ("conflicting flags: ...") via
 * checkModeConflicts(), and a flag the binary never reads is rejected
 * ("unknown flag --X", exit 2) by Options::allRead() once each main
 * has read its own flags.
 */
#ifndef SPLASH2_HARNESS_CLI_H
#define SPLASH2_HARNESS_CLI_H

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "harness/report.h"
#include "sim/faultinject.h"

namespace splash::harness {

struct EngineOpts
{
    int jobs = 1;
    SimOpts sim;
    /** True when parseMachineFlags handled an informational request
     *  (--protocol list) and printed it: the caller should exit 0
     *  instead of treating the false return as a usage error. */
    bool listRequested = false;
    /** True when --sweep was given explicitly (splash2run switches
     *  from the memory-system characterization to the working-set
     *  sweep on it; fig3_working_sets always sweeps). */
    bool sweepRequested = false;
    /** True when --interconnect was given explicitly (used to reject
     *  contradictory combinations only when the user actually asked
     *  for the non-default organization). */
    bool interconnectRequested = false;
    /** Race-detector granularity (--race; splash2run only). */
    sim::RaceGranularity race = sim::RaceGranularity::Off;
};

/** Print the one uniform diagnostic shape for a contradictory flag
 *  combination and return false, so callers can
 *  `return conflictingFlags(...)` from a parse path. */
inline bool
conflictingFlags(const std::string& a, const std::string& b,
                 const std::string& why)
{
    std::fprintf(stderr,
                 "conflicting flags: %s and %s cannot be combined "
                 "(%s)\n",
                 a.c_str(), b.c_str(), why.c_str());
    return false;
}

/** Parse the shared engine flags; prints to stderr and returns false
 *  on an unrecognized value. */
inline bool
parseEngineOpts(const Options& opt, EngineOpts* out)
{
    long jobs = opt.getI("jobs", 1);
    if (jobs < 1) {
        std::fprintf(stderr, "--jobs must be >= 1 (got %ld)\n", jobs);
        return false;
    }
    out->jobs = static_cast<int>(jobs);
    long quantum = opt.getI("quantum", 250);
    if (quantum < 1) {
        std::fprintf(stderr, "--quantum must be >= 1 (got %ld)\n",
                     quantum);
        return false;
    }
    out->sim.quantum = static_cast<std::uint64_t>(quantum);
    std::string replicas = opt.getS("replicas", "on");
    if (!parseReplicas(replicas, &out->sim.replicas)) {
        std::fprintf(stderr, "unknown --replicas '%s' (off or on)\n",
                     replicas.c_str());
        return false;
    }
    out->sim.record = opt.getS("record", "");
    out->sim.replay = opt.getS("replay", "");
    if (!out->sim.record.empty() && !out->sim.replay.empty())
        return conflictingFlags("--record", "--replay",
                                "a run either writes the trace store "
                                "or reads from it");
    if (!out->sim.replay.empty()) {
        struct stat st{};
        if (::stat(out->sim.replay.c_str(), &st) != 0) {
            std::fprintf(stderr,
                         "--replay path '%s' does not exist\n",
                         out->sim.replay.c_str());
            return false;
        }
    }
    if (!out->sim.record.empty()) {
        // The store is a directory of one file per recorded identity;
        // create it up front so a non-writable destination fails here
        // rather than mid-run (a path naming an existing regular file
        // is allowed: single-file recording).
        struct stat st{};
        if (::stat(out->sim.record.c_str(), &st) != 0) {
            if (::mkdir(out->sim.record.c_str(), 0777) != 0) {
                std::fprintf(
                    stderr,
                    "--record path '%s' cannot be created\n",
                    out->sim.record.c_str());
                return false;
            }
        } else if (S_ISDIR(st.st_mode) &&
                   ::access(out->sim.record.c_str(), W_OK) != 0) {
            std::fprintf(stderr,
                         "--record path '%s' is not writable\n",
                         out->sim.record.c_str());
            return false;
        }
    }
    return true;
}

/** The machine flags a binary honours, each level adding one flag to
 *  the levels before it: Check reads --check, Protocol adds
 *  --protocol, Interconnect adds --interconnect (see the file
 *  comment for which binary stops where). */
enum class MachineFlags : std::uint8_t { Check, Protocol, Interconnect };

/** Parse the machine flags up to @p upTo.  Only the binaries that
 *  build a memory system call this; anywhere else, and above
 *  @p upTo, the flags stay unread and Options::allRead() rejects
 *  them.  Prints to stderr and returns false on an unrecognized value
 *  (or after printing --protocol list). */
inline bool
parseMachineFlags(const Options& opt, MachineFlags upTo, EngineOpts* out)
{
    long check = opt.getI("check", 0);
    if (check < 0) {
        std::fprintf(stderr,
                     "--check must be >= 0 (got %ld; 0 = off)\n", check);
        return false;
    }
    out->sim.checkPeriod = static_cast<std::uint64_t>(check);
    if (upTo == MachineFlags::Check)
        return true;
    std::string protoName = opt.getS("protocol", "mesi");
    if (protoName == "list") {
        std::fputs(sim::protocolZoo().c_str(), stdout);
        out->listRequested = true;
        return false;
    }
    if (!sim::parseProtocol(protoName, &out->sim.protocol)) {
        std::fprintf(stderr,
                     "unknown --protocol '%s' (msi, mesi, moesi, "
                     "dragon, or list)\n",
                     protoName.c_str());
        return false;
    }
    if (upTo == MachineFlags::Protocol)
        return true;
    std::string icName = opt.getS("interconnect", "directory");
    out->interconnectRequested = opt.has("interconnect");
    if (!sim::parseInterconnect(icName, &out->sim.interconnect)) {
        std::fprintf(stderr,
                     "unknown --interconnect '%s' (directory or "
                     "bus)\n",
                     icName.c_str());
        return false;
    }
    return true;
}

/** Parse --sweep.  Only the binaries whose output a sweep mode
 *  changes call this (splash2run and fig3_working_sets); anywhere
 *  else the flag stays unread and Options::allRead() rejects it.
 *  Prints to stderr and returns false on an unrecognized mode. */
inline bool
parseSweepFlag(const Options& opt, EngineOpts* out)
{
    std::string sweepMode = opt.getS("sweep", "exact");
    out->sweepRequested = opt.has("sweep");
    if (!sim::parseSweepMode(sweepMode, &out->sim.sweep)) {
        std::fprintf(stderr,
                     "unknown --sweep '%s' (exact, model, or both)\n",
                     sweepMode.c_str());
        return false;
    }
    return true;
}

/** Parse --race (splash2run only; anywhere else allRead() rejects
 *  it).  Prints to stderr and returns false on an unknown value. */
inline bool
parseRaceFlag(const Options& opt, EngineOpts* out)
{
    std::string race = opt.getS("race", "off");
    if (!sim::parseRaceGranularity(race, &out->race)) {
        std::fprintf(stderr, "unknown --race '%s' (off, word, or line)\n",
                     race.c_str());
        return false;
    }
    return true;
}

/** Reject contradictory mode-flag combinations with the uniform
 *  "conflicting flags" diagnostic.  splash2run calls this once after
 *  the four parse calls above; it covers
 *  the run-mode matrix the engine flags cannot see on their own
 *  (--inject, --race-inject and the cache geometry flags are
 *  splash2run flags, not engine flags).  Each harness or mode owns
 *  the whole run, so combining two of them would silently ignore one
 *  -- reject instead of no-op.  Returns true when the combination is
 *  runnable.
 */
inline bool
checkModeConflicts(const Options& opt, const EngineOpts& eng)
{
    const bool inject = opt.has("inject");
    const bool raceInject = opt.has("race-inject");
    const bool record = !eng.sim.record.empty();
    const bool replay = !eng.sim.replay.empty();
    const bool race = eng.race != sim::RaceGranularity::Off;
    const bool bus = eng.sim.interconnect == sim::Interconnect::Bus;

    if (inject && raceInject)
        return conflictingFlags("--inject", "--race-inject",
                                "each injection harness owns the "
                                "whole run");
    if (inject || raceInject) {
        const std::string flag = inject ? "--inject" : "--race-inject";
        if (eng.sweepRequested)
            return conflictingFlags(flag, "--sweep",
                                    "the working-set sweep has no "
                                    "protocol state to corrupt");
        if (record)
            return conflictingFlags(flag, "--record",
                                    "injection runs corrupt state and "
                                    "must not enter the trace store");
        if (replay)
            return conflictingFlags(flag, "--replay",
                                    "the harness re-executes the "
                                    "program itself");
        if (race)
            return conflictingFlags(flag, "--race",
                                    "the harness drives its own "
                                    "detector configuration");
    }
    // The sweep's grid fixes capacity and associativity; of the
    // cache flags only --line applies to it.
    for (const char* flag : {"cachekb", "assoc"})
        if (eng.sweepRequested && opt.has(flag))
            return conflictingFlags(std::string("--") + flag, "--sweep",
                                    "the working-set sweep simulates "
                                    "the Figure-3 grid of capacities "
                                    "and associativities");
    if (eng.interconnectRequested && bus && eng.sweepRequested)
        return conflictingFlags("--interconnect bus", "--sweep",
                                "the working-set sweep models cache "
                                "capacity only and has no "
                                "interconnect");
    // The coherence checker audits MemSystem state; runs without one
    // would ignore it.
    if (eng.sim.checkPeriod != 0 && eng.sweepRequested)
        return conflictingFlags("--check", "--sweep",
                                "the working-set sweep has no "
                                "directory or protocol state to check");
    if (eng.sim.checkPeriod != 0 && opt.has("nomem"))
        return conflictingFlags("--check", "--nomem",
                                "a PRAM run has no memory system to "
                                "check");
    // A named fault kind targets one organization's state; injecting
    // it under the other interconnect could only ever SKIP, so the
    // mismatch is rejected at parse time ('all' filters by
    // eligibility instead).
    if (inject) {
        std::string which = opt.getS("inject", "all");
        sim::FaultKind k;
        if (which != "all" && sim::parseFaultKind(which, &k) &&
            sim::faultKindIsBus(k) != bus)
            return conflictingFlags(
                "--inject " + which,
                bus ? "--interconnect bus" : "--interconnect directory",
                sim::faultKindIsBus(k)
                    ? "this fault kind corrupts snoopy-bus state"
                    : "this fault kind corrupts directory state");
    }
    return true;
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_CLI_H
