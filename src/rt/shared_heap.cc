#include "rt/shared_heap.h"

#include <sys/mman.h>

#include <cstring>
#include <string>

#include "base/log.h"

#if defined(__SANITIZE_ADDRESS__)
#define SPLASH2_HEAP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPLASH2_HEAP_ASAN 1
#endif
#endif
#if SPLASH2_HEAP_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace splash::rt {

SharedHeap::SharedHeap(int nprocs, int lineSize) : nprocs_(nprocs)
{
    ensure(isPow2(lineSize), "line size must be a power of two");
    placement_.reset(nprocs, lineSize);
}

SharedHeap::~SharedHeap()
{
    if (base_)
        ::munmap(reinterpret_cast<void*>(base_), kArenaBytes);
}

void*
SharedHeap::alloc(std::size_t bytes, std::size_t align)
{
    if (bytes == 0)
        bytes = 1;
    if (align < 64)
        align = 64;
    ensure(isPow2(align), "alignment must be a power of two");

    if (base_ == 0) {
        // One lazily-backed reservation: nothing is committed until
        // the zero-fill below touches a page, so the large span costs
        // only address space.
        void* m = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                         -1, 0);
        ensure(m != MAP_FAILED, "shared-heap arena reservation failed");
        base_ = reinterpret_cast<Addr>(m);
    }

    std::size_t misalign = cursor_ & (align - 1);
    if (misalign)
        cursor_ += align - misalign;
    // The problem size is the user's choice, so running out is a user
    // error, not a broken invariant.
    if (bytes > kArenaBytes - cursor_)
        fatal("shared-heap arena exhausted: the problem's shared data "
              "exceeds the " + std::to_string(kArenaBytes >> 20) +
              " MB arena");
    void* out = reinterpret_cast<void*>(base_ + cursor_);
    cursor_ += bytes;
    allocated_ += bytes;
#if SPLASH2_HEAP_ASAN
    // The arena mmap can reuse pages whose shadow a prior mapping
    // (e.g. a fiber stack torn down by another library) left poisoned;
    // munmap does not clear shadow.
    __asan_unpoison_memory_region(out, bytes);
#endif
    std::memset(out, 0, bytes);
    return out;
}

void
SharedHeap::setHome(const void* p, std::size_t bytes, ProcId home)
{
    ensure(home >= 0 && home < nprocs_, "home node out of range");
    if (bytes == 0)
        return;
    Addr start = toSim(reinterpret_cast<Addr>(p));
    if (preMutate_)
        preMutate_(start, bytes, home);
    placement_.apply(start, bytes, home);
}

} // namespace splash::rt
