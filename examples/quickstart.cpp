/**
 * @file
 * Quickstart: run one SPLASH-2 kernel (FFT) under the memory-system
 * simulator and print the characterization every bench builds on.
 *
 *   $ ./quickstart
 *
 * Shows the three layers of the library:
 *  1. an application with a typed Config/Result API,
 *  2. the execution environment (deterministic PRAM interleaving),
 *  3. the directory-MESI memory simulator and its traffic breakdown.
 */
#include <cstdio>

#include "apps/fft/fft.h"
#include "rt/env.h"
#include "sim/memsys.h"

using namespace splash;

int
main()
{
    const int procs = 8;

    // 1. Execution environment: 8 simulated processors, deterministic
    //    cooperative interleaving, PRAM timing.
    rt::Env env({rt::Mode::Sim, procs});

    // 2. Memory system: 1 MB 4-way 64 B-line caches, directory MESI.
    sim::MachineConfig mc;
    mc.nprocs = procs;
    sim::MemSystem mem(mc, &env.heap());
    env.attachSink(&mem);

    // 3. The application: a 4K-point FFT.
    apps::fft::Config cfg;
    cfg.log2n = 12;
    apps::fft::Fft fft(env, cfg);
    env.startMeasurement();
    apps::fft::Result r = fft.run();

    std::printf("FFT of %ld points on %d processors\n", fft.n(), procs);
    std::printf("  checksum            %.6f\n", r.checksum);
    std::printf("  PRAM cycles         %llu\n",
                static_cast<unsigned long long>(env.elapsed()));
    auto exec = env.totalStats();
    std::printf("  instructions        %llu (%llu flops)\n",
                static_cast<unsigned long long>(exec.instructions()),
                static_cast<unsigned long long>(exec.flops));
    std::printf("  PRAM speedup        %.2f / %d\n",
                double(exec.instructions()) / double(env.elapsed()),
                procs);

    sim::MemStats m = mem.total();
    std::printf("  shared references   %llu, miss rate %.2f%%\n",
                static_cast<unsigned long long>(m.accesses()),
                100.0 * m.missRate());
    std::printf("  traffic: remote %llu B (overhead %llu B), "
                "local %llu B, true-sharing %llu B\n",
                static_cast<unsigned long long>(m.remoteData()),
                static_cast<unsigned long long>(m.remoteOverhead),
                static_cast<unsigned long long>(m.localData),
                static_cast<unsigned long long>(m.trueSharedData));
    std::printf("  misses: cold %llu, capacity %llu, true-share %llu, "
                "false-share %llu\n",
                static_cast<unsigned long long>(
                    m.misses[int(sim::MissType::Cold)]),
                static_cast<unsigned long long>(
                    m.misses[int(sim::MissType::Capacity)]),
                static_cast<unsigned long long>(
                    m.misses[int(sim::MissType::TrueSharing)]),
                static_cast<unsigned long long>(
                    m.misses[int(sim::MissType::FalseSharing)]));
    return 0;
}
