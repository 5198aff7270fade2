/**
 * @file
 * Machine-model configuration for the memory-system simulator.
 *
 * The defaults reproduce the operating point of the SPLASH-2
 * characterization paper: 1 MB, 4-way set-associative, 64-byte-line
 * caches kept coherent by a directory-based Illinois (MESI) protocol
 * with replacement hints, 8-byte overhead packets, PRAM timing.
 */
#ifndef SPLASH2_SIM_CONFIG_H
#define SPLASH2_SIM_CONFIG_H

#include <climits>
#include <cstdint>
#include <string>

#include "base/log.h"
#include "base/types.h"
#include "sim/bus.h"
#include "sim/protocol.h"

namespace splash::sim {

/** Configuration of one per-processor cache. */
struct CacheConfig
{
    /** Total capacity in bytes (power of two). */
    std::uint64_t size = 1u << 20;
    /** Associativity; 0 means fully associative. */
    int assoc = 4;
    /** Line size in bytes (power of two). */
    int lineSize = 64;

    int
    numLines() const
    {
        return static_cast<int>(size / lineSize);
    }

    int
    numSets() const
    {
        int ways = assoc == 0 ? numLines() : assoc;
        return numLines() / ways;
    }

    void
    validate() const
    {
        if (!isPow2(size) || !isPow2(lineSize))
            fatal("cache size and line size must be powers of two");
        if (size / lineSize > INT_MAX)
            fatal("cache line count must fit in an int");
        if (assoc < 0 || (assoc != 0 && numLines() % assoc != 0))
            fatal("cache associativity does not divide line count");
        if (lineSize < 8 || static_cast<std::uint64_t>(lineSize) > size)
            fatal("line size must be in [8, size]");
    }
};

/** Full machine configuration. */
struct MachineConfig
{
    int nprocs = 32;
    CacheConfig cache;
    /** Size of request/invalidation/ack/hint packets and of the header
     *  attached to each data transfer, in bytes (paper: 8). */
    int overheadBytes = 8;
    /** Send replacement hints so the directory's sharer lists stay
     *  exact (the paper's protocol assumption). When disabled, clean
     *  replacements are silent and the directory sends spurious
     *  invalidations to stale sharers. */
    bool replacementHints = true;
    /** Coherence protocol (sim/protocol.h); the paper's machine runs
     *  the Illinois MESI protocol. */
    ProtocolKind protocol = ProtocolKind::MESI;
    /** Interconnect organization (sim/bus.h): point-to-point directory
     *  machine (the paper's default) or a snoopy broadcast bus. */
    Interconnect interconnect = Interconnect::Directory;
    /** Bus data-path width in bytes per bus cycle (bus mode only;
     *  power of two, at most one line): a line transfer occupies the
     *  data wires for lineSize / busWidthBytes cycles. */
    int busWidthBytes = 8;
    /** Resolve homes through the program's data placement, when the
     *  pass has one.  False interleaves lines across nodes regardless
     *  (the ablation's "no placement" machine). */
    bool placedHomes = true;

    void
    validate() const
    {
        if (nprocs < 1 || nprocs > kMaxProcs)
            fatal("processor count must be in [1, " +
                  std::to_string(kMaxProcs) + "]: the full-map " +
                  "directory tracks sharers in a " +
                  std::to_string(kMaxProcs) + "-bit mask (got " +
                  std::to_string(nprocs) + ")");
        cache.validate();
        if (busWidthBytes < 1 || !isPow2(busWidthBytes) ||
            busWidthBytes > cache.lineSize)
            fatal("bus width must be a power of two in [1, lineSize]");
    }
};

} // namespace splash::sim

#endif // SPLASH2_SIM_CONFIG_H
