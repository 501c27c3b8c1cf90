//===- support/Arena.cpp - Fixed-capacity bump byte arena -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include "support/Align.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cstdint>
#include <new>
#include <sanitizer/asan_interface.h> // No-op macros unless built with ASan.
#include <sys/mman.h>
#include <unistd.h>

using namespace smokestack;

namespace {

Statistic NumArenasMapped("arena.mapped",
                          "Arena backings mapped fresh from the kernel");
Statistic NumArenasRecycled("arena.recycled",
                            "Arena backings reused from a thread's free list");
Statistic NumArenaBytesReleased(
    "arena.madvise-bytes",
    "Dirty arena bytes released with madvise before a mapping was parked");

/// A parked mapping, the capacity it was laid out for, and the data range
/// its last owner dirtied (poisoned under ASan while parked).
struct ParkedMapping {
  uint8_t *Mapping;
  uint64_t MappingBytes;
  uint64_t Cap;
  uint8_t *Dirty;
  uint64_t DirtyBytes;
};

/// The calling thread's free list, oldest first. Trivially destructible, so
/// an arena destroyed after the Reaper below has run (a thread_local VM, or
/// a static one in the main thread) still finds it Closed and unmaps.
struct FreeList {
  ParkedMapping Slots[ByteArena::MaxCachedMappings];
  unsigned Count;
  bool Closed;
};

thread_local FreeList Parked;

void unmap(const ParkedMapping &P) {
  ASAN_UNPOISON_MEMORY_REGION(P.Dirty, P.DirtyBytes);
  munmap(P.Mapping, P.MappingBytes);
}

/// Unmaps the thread's parked mappings when the thread exits.
struct Reaper {
  ~Reaper() {
    for (unsigned I = 0; I != Parked.Count; ++I)
      unmap(Parked.Slots[I]);
    Parked.Count = 0;
    Parked.Closed = true;
  }
};

/// Registers the calling thread's Reaper (once per thread).
void armReaper() {
  thread_local Reaper R;
  (void)R;
}

uint64_t pageSize() {
  static const uint64_t Page = [] {
    long P = sysconf(_SC_PAGESIZE);
    return P > 0 ? static_cast<uint64_t>(P) : uint64_t(4096);
  }();
  return Page;
}

} // namespace

ByteArena::ByteArena(uint64_t Capacity) : Cap(Capacity), TouchedLo(Capacity) {
  uint64_t Page = pageSize();
  uint64_t Body = alignTo(Capacity, Page);
  if (Body < Capacity || Body > UINT64_MAX - 2 * Page)
    throw std::bad_alloc();
  MappingBytes = Body + 2 * Page;
  // Newest first: the most recently parked mapping has the warmest pages.
  for (unsigned I = Parked.Count; I-- != 0;) {
    const ParkedMapping &Hit = Parked.Slots[I];
    if (Hit.Cap != Capacity)
      continue;
    ASAN_UNPOISON_MEMORY_REGION(Hit.Dirty, Hit.DirtyBytes);
    Mapping = Hit.Mapping;
    std::copy(Parked.Slots + I + 1, Parked.Slots + Parked.Count,
              Parked.Slots + I);
    --Parked.Count;
    ++NumArenasRecycled;
    Bytes = Mapping + Page + (Body - Capacity);
    return;
  }
  // Reserve guard + body + guard inaccessible, then open the body: two
  // system calls, and no page is populated until it is first touched.
  void *P = mmap(nullptr, MappingBytes, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Mapping = static_cast<uint8_t *>(P);
  if (Body && mprotect(Mapping + Page, Body, PROT_READ | PROT_WRITE) != 0) {
    munmap(Mapping, MappingBytes);
    throw std::bad_alloc();
  }
  ++NumArenasMapped;
  Bytes = Mapping + Page + (Body - Capacity);
}

ByteArena::~ByteArena() {
  if (!park())
    munmap(Mapping, MappingBytes);
}

bool ByteArena::park() {
  if (Parked.Closed)
    return false;
  uint8_t *Dirty = Bytes + touchedLo();
  uint64_t DirtyBytes = touchedBytes();
  if (DirtyBytes <= ZeroInPlaceLimit) {
    zeroTouched();
  } else {
    // Whole pages only: the range may widen into the slack before Bytes,
    // which is body and zero, but never past the body's page-aligned end.
    uint64_t Page = pageSize();
    auto Lo = reinterpret_cast<uintptr_t>(Dirty) & ~(Page - 1);
    auto Hi = alignTo(reinterpret_cast<uintptr_t>(Dirty + DirtyBytes), Page);
    if (madvise(reinterpret_cast<void *>(Lo), Hi - Lo, MADV_DONTNEED) != 0)
      return false;
    NumArenaBytesReleased += Hi - Lo;
  }
  // Protections are left as they are: a parked mapping is a fresh one.
  ASAN_POISON_MEMORY_REGION(Dirty, DirtyBytes);
  armReaper();
  if (Parked.Count == MaxCachedMappings) {
    // Full: the oldest mapping, the least likely to be asked for, goes.
    unmap(Parked.Slots[0]);
    std::copy(Parked.Slots + 1, Parked.Slots + Parked.Count, Parked.Slots);
    --Parked.Count;
  }
  Parked.Slots[Parked.Count++] = {Mapping, MappingBytes, Cap, Dirty,
                                  DirtyBytes};
  return true;
}

unsigned ByteArena::cachedMappings() { return Parked.Count; }
