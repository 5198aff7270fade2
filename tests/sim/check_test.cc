// Tests for the coherence invariant checker and the fault-injection
// harness that certifies it: clean simulator states must be silent,
// every seeded protocol corruption must be detected with the expected
// rule, the wired-in sampled checker must abort the run when a live
// violation appears, and enabling the checker must not perturb any
// statistic of a real characterization.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../rt/run_compare.h"
#include "harness/experiment.h"
#include "sim/check.h"
#include "sim/faultinject.h"
#include "sim/memsys.h"

using namespace splash;
using namespace splash::sim;

namespace {

struct Access
{
    ProcId p;
    Addr a;
    AccessType t;
};

std::vector<Access>
randomStream(int nprocs, int n, std::uint64_t lines, std::uint64_t seed)
{
    std::vector<Access> out;
    out.reserve(n);
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Access acc;
        acc.p = static_cast<ProcId>((x >> 60) % nprocs);
        acc.a = 0x400000 + ((x >> 30) % lines) * 64 + ((x >> 20) % 8) * 8;
        acc.t = ((x >> 13) & 3) == 0 ? AccessType::Write
                                     : AccessType::Read;
        out.push_back(acc);
    }
    return out;
}

/** Drive @p mem to a realistic mid-run protocol state. */
void
warmUp(MemSystem& mem, int nprocs, std::uint64_t seed)
{
    for (const auto& acc : randomStream(nprocs, 30000, 400, seed))
        mem.access(acc.p, acc.a, 8, acc.t);
}

MachineConfig
smallMachine(int nprocs, bool hints,
             ProtocolKind proto = ProtocolKind::MESI)
{
    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = 16 << 10;  // small cache: forces replacements
    mc.replacementHints = hints;
    mc.protocol = proto;
    return mc;
}

/** The rule each fault kind must trip (its primary signature). */
const char*
expectedRule(FaultKind k)
{
    switch (k) {
      case FaultKind::DroppedInval:   return "sharer-missing";
      case FaultKind::StaleSharer:    return "sharer-stale";
      case FaultKind::DoubleModified: return "multiple-modified";
      case FaultKind::LostHint:       return "sharer-stale";
      case FaultKind::DirtyDesync:    return "dirty-owner";
      case FaultKind::TrafficSkew:    return "traffic-conservation";
      case FaultKind::IllegalState:   return "illegal-state";
      default:                        return "?";
    }
}

/** IllegalState has no target under protocols whose legal set is the
 *  full state alphabet. */
bool
usesFullAlphabet(ProtocolKind k)
{
    const Protocol& p = protocol(k);
    for (int s = 1; s < kNumLineStates; ++s)
        if (!stateIn(p.legalStates, static_cast<LineState>(s)))
            return false;
    return true;
}

bool
hasRule(const std::vector<Violation>& v, const std::string& rule)
{
    for (const auto& viol : v)
        if (viol.rule == rule)
            return true;
    return false;
}

} // namespace

// A legitimately reached protocol state -- including replacements,
// upgrades, update broadcasts, and the lazy E->M fast path -- must be
// silent under the full sweep, for every registered protocol, with
// hints on and off.
TEST(CoherenceChecker, CleanStatesAreSilent)
{
    for (int pi = 0; pi < kNumProtocols; ++pi) {
        auto proto = static_cast<ProtocolKind>(pi);
        for (bool hints : {true, false}) {
            for (std::uint64_t seed : {1u, 77u, 4096u}) {
                MemSystem mem(smallMachine(8, hints, proto));
                warmUp(mem, 8, seed);
                std::vector<Violation> v;
                EXPECT_EQ(CoherenceChecker(mem).checkAll(&v), 0u)
                    << protocolName(proto) << " hints=" << hints
                    << " seed=" << seed << "\n" << formatViolations(v);
            }
        }
    }
}

// Detection matrix: every fault kind, under every protocol, across
// several seeds (each seed picks a different deterministic
// (line, proc) target), must trip the checker -- and trip the rule
// that corresponds to the corruption.  The only legal ineligibilities
// here are IllegalState under a full-alphabet protocol and the
// bus-only kinds, which gate on the interconnect (these machines are
// directory-mode; bus detection is covered by bus_test.cc).
TEST(CoherenceChecker, DetectsEverySeededFault)
{
    for (int pi = 0; pi < kNumProtocols; ++pi) {
        auto proto = static_cast<ProtocolKind>(pi);
        for (int ki = 0; ki < kNumFaultKinds; ++ki) {
            auto kind = static_cast<FaultKind>(ki);
            for (std::uint64_t seed : {0u, 1u, 13u, 1234u}) {
                MemSystem mem(smallMachine(8, /*hints=*/true, proto));
                warmUp(mem, 8, 42);
                ASSERT_EQ(CoherenceChecker(mem).checkAll(), 0u)
                    << protocolName(proto);

                std::string what = FaultInjector(mem).inject(kind, seed);
                if (faultKindIsBus(kind)) {
                    EXPECT_TRUE(what.empty())
                        << protocolName(proto)
                        << ": bus fault kind must be ineligible on a "
                           "directory machine";
                    continue;
                }
                if (kind == FaultKind::IllegalState &&
                    usesFullAlphabet(proto)) {
                    EXPECT_TRUE(what.empty())
                        << protocolName(proto)
                        << ": full-alphabet protocol has no illegal "
                           "state to seed";
                    continue;
                }
                ASSERT_FALSE(what.empty())
                    << protocolName(proto) << " " << faultKindName(kind)
                    << " seed " << seed
                    << ": no eligible target in a warmed-up state";

                std::vector<Violation> v;
                std::size_t n = CoherenceChecker(mem).checkAll(&v);
                EXPECT_GT(n, 0u)
                    << protocolName(proto) << " " << faultKindName(kind)
                    << " seed " << seed << ": checker missed " << what;
                EXPECT_TRUE(hasRule(v, expectedRule(kind)))
                    << protocolName(proto) << " " << faultKindName(kind)
                    << " seed " << seed << ": expected rule '"
                    << expectedRule(kind) << "' absent from:\n"
                    << formatViolations(v);
            }
        }
    }
}

// Hint faults are only faults when the sharer vector is contractually
// exact; with hints off the injector must report no eligible target
// rather than seed a legal state.
TEST(CoherenceChecker, HintFaultsIneligibleWithoutHints)
{
    MemSystem mem(smallMachine(8, /*hints=*/false));
    warmUp(mem, 8, 42);
    EXPECT_EQ(FaultInjector(mem).inject(FaultKind::StaleSharer, 0), "");
    EXPECT_EQ(FaultInjector(mem).inject(FaultKind::LostHint, 0), "");
    // A stale bit is legal without hints (superset semantics): seeding
    // the same mutation by hand must NOT trip the checker.
    EXPECT_EQ(CoherenceChecker(mem).checkAll(), 0u);
}

// Per-line mode: the cheap debug-path pass must fire on the corrupted
// line and stay silent on untouched lines.
TEST(CoherenceChecker, CheckLineLocalizesTheFault)
{
    MemSystem mem(smallMachine(8, /*hints=*/true));
    warmUp(mem, 8, 42);

    std::string what =
        FaultInjector(mem).inject(FaultKind::DoubleModified, 3);
    ASSERT_FALSE(what.empty());
    // Recover the target line from the full sweep.
    std::vector<Violation> v;
    ASSERT_GT(CoherenceChecker(mem).checkAll(&v), 0u);
    Addr bad = 0;
    for (const auto& viol : v)
        if (viol.rule == "multiple-modified")
            bad = viol.line;
    ASSERT_NE(bad, 0u);

    CoherenceChecker chk(mem);
    EXPECT_GT(chk.checkLine(bad), 0u);
    EXPECT_EQ(chk.checkLine(bad + 64), 0u) << "fault leaked to neighbor";
}

// The wired-in sampled path: with --check 1 a live violation must
// abort the run at the next slow-path transaction, loudly.
TEST(CoherenceCheckerDeathTest, SampledCheckerAbortsOnCorruption)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            MemSystem mem(smallMachine(8, /*hints=*/true));
            mem.setCheckPeriod(1);
            warmUp(mem, 8, 42);
            // Traffic skew can never be repaired by later traffic, so
            // the very next sampled sweep must catch it.
            FaultInjector(mem).inject(FaultKind::TrafficSkew, 0);
            warmUp(mem, 8, 43);
        },
        "coherence invariant violated");
}

// Observation only: a real characterization with the checker at its
// most aggressive sampling must stay silent and produce statistics
// identical to the checker-off run.
TEST(CoherenceChecker, CheckerDoesNotPerturbCharacterization)
{
    using namespace splash::harness;
    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.25;
    const int procs = 8;
    sim::CacheConfig cache;

    SimOpts off;
    RunStats plain = runCharacterizations(
        *app, procs, {experimentFor(cache, off)}, cfg, off)[0];

    SimOpts checked;
    checked.checkPeriod = 1;  // full sweep every slow-path transaction
    RunStats audited = runCharacterizations(
        *app, procs, {experimentFor(cache, checked)}, cfg, checked)[0];

    EXPECT_TRUE(plain.valid);
    splash::testing::expectSameRun(plain, audited);
}
