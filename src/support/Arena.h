//===- support/Arena.h - Fixed-capacity bump byte arena --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity byte arena combining five cheap mechanisms that make
/// per-request memory hygiene O(bytes actually used) instead of O(capacity):
///
///   * lazily zeroed backing — the bytes come from one anonymous private
///     mapping (mmap with MAP_NORESERVE), so a fresh arena reads all zeroes
///     from the kernel's zero page without a memset and without faulting in
///     a page nobody touches;
///   * recycled mappings — a destroyed arena does not munmap its backing
///     but parks it on a small bounded per-thread free list (a full list
///     unmaps its oldest entry), and the next arena of the same capacity on
///     that thread takes the newest match over, so a VM built after one was
///     torn down pays no system call and no page fault on the pages the
///     last one touched. Before parking, a dirty range of at most
///     ZeroInPlaceLimit bytes is zeroed in place; a larger one goes back to
///     the kernel with madvise(MADV_DONTNEED), so a parked mapping holds
///     little resident memory. Either way the parked mapping is bitwise a
///     fresh one: an all-zero body and untouched guards (page protections
///     never change while it is parked). A cache miss is the plain mmap
///     path, and a thread's parked mappings are unmapped when it exits;
///   * guard pages — one PROT_NONE page on each side of the backing. The
///     data ends flush against the trailing guard, so a host-level write
///     one byte past capacity (say, by the JIT's inlined stack stores)
///     faults at once instead of corrupting a neighboring allocation;
///   * bump allocation and exact touched-range tracking — a cursor advanced
///     with overflow-checked arithmetic (plus a high-water mark), and
///     [TouchedLo, TouchedHi) bracketing every byte ever written, so
///     "return to all-zeroes" is one memset over the dirty range;
///   * O(1) cursor reset — resetCursor() rewinds the allocator without
///     touching memory, leaving zeroing policy to the caller (SimMemory's
///     request boundary zeroes exactly the allocated prefix, preserving
///     the documented attack semantics of out-of-cursor heap bytes).
///
/// Because the backing starts all-zero, an arena whose touched range has
/// been zeroed is bitwise indistinguishable from a fresh one — the
/// property both the VM snapshot/restore fast-path and mapping recycling
/// are built on. It obliges every writer to widen the touched range over
/// what it writes. An arena can be neither copied nor moved, so data() and
/// the touched-range slots stay at one address for its whole lifetime: the
/// JIT caches both (JitAbi.h).
///
/// Under AddressSanitizer a parked mapping's dirty range is poisoned until
/// the mapping is reused: a stale pointer into a destroyed arena no longer
/// faults on an unmapped page, so ASan reports the use-after-destroy
/// instead.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_SUPPORT_ARENA_H
#define SMOKESTACK_SUPPORT_ARENA_H

#include <cstdint>
#include <cstring>

namespace smokestack {

class ByteArena {
public:
  /// Sentinel returned by tryAllocate() when the arena is exhausted (or the
  /// request overflows the arithmetic).
  static constexpr uint64_t NoSpace = UINT64_MAX;

  /// Dirty ranges up to this many bytes are zeroed in place when the arena
  /// is destroyed; larger ones are released with madvise.
  static constexpr uint64_t ZeroInPlaceLimit = 64u << 10;

  /// Bound on the mappings one thread keeps parked (two VMs' worth of
  /// segments); parking one more unmaps the oldest.
  static constexpr unsigned MaxCachedMappings = 6;

  /// Provides \p Capacity zero bytes between two guard pages, reusing a
  /// mapping this thread parked if one of the same capacity is free and
  /// mapping a new one otherwise; throws std::bad_alloc when the mapping
  /// fails.
  explicit ByteArena(uint64_t Capacity);
  /// Zeroes or releases the dirty range and parks the mapping on this
  /// thread's free list (unmapping it instead once the thread is exiting).
  ~ByteArena();

  /// Mappings currently parked on the calling thread's free list.
  static unsigned cachedMappings();

  ByteArena(const ByteArena &) = delete;
  ByteArena &operator=(const ByteArena &) = delete;

  uint8_t *data() { return Bytes; }
  const uint8_t *data() const { return Bytes; }
  uint64_t capacity() const { return Cap; }

  //===--------------------------------------------------------------------===//
  // Touched-range tracking
  //===--------------------------------------------------------------------===//

  /// Widens the touched range to cover [Lo, Hi). Two predictable compares
  /// on the write hot path.
  void noteTouched(uint64_t Lo, uint64_t Hi) {
    if (Lo < TouchedLo)
      TouchedLo = Lo;
    if (Hi > TouchedHi)
      TouchedHi = Hi;
  }

  /// Stable addresses of the touched-range bounds, for code that updates
  /// them without going through noteTouched() — the JIT's inlined stack
  /// stores replicate noteTouched's two compares against these slots, so
  /// both engines keep one set of books. The encoding invariant (empty is
  /// Lo == capacity, Hi == 0) must be preserved by any writer.
  uint64_t *touchedLoSlot() { return &TouchedLo; }
  uint64_t *touchedHiSlot() { return &TouchedHi; }

  bool touched() const { return TouchedHi > TouchedLo; }
  uint64_t touchedLo() const { return touched() ? TouchedLo : 0; }
  uint64_t touchedHi() const { return touched() ? TouchedHi : 0; }
  uint64_t touchedBytes() const { return touched() ? TouchedHi - TouchedLo : 0; }

  /// Zeroes the touched range and collapses it, returning the backing store
  /// to its freshly-constructed (all-zero) image. Returns the bytes zeroed.
  uint64_t zeroTouched() {
    uint64_t Zeroed = touchedBytes();
    if (Zeroed)
      std::memset(Bytes + TouchedLo, 0, Zeroed);
    TouchedLo = Cap;
    TouchedHi = 0;
    return Zeroed;
  }

  /// Declares the touched range directly (snapshot restore stamps the
  /// captured range back after copying the captured image in).
  void setTouched(uint64_t Lo, uint64_t Hi) {
    if (Hi > Lo) {
      TouchedLo = Lo;
      TouchedHi = Hi;
    } else {
      TouchedLo = Cap;
      TouchedHi = 0;
    }
  }

  //===--------------------------------------------------------------------===//
  // Bump allocation
  //===--------------------------------------------------------------------===//

  /// Reserves \p Size bytes at the cursor and returns the offset of the
  /// reservation, or NoSpace when the arena cannot hold it. Overflow-safe:
  /// the exhaustion test is phrased against the remaining capacity, so a
  /// Size near UINT64_MAX cannot wrap the cursor past the check.
  uint64_t tryAllocate(uint64_t Size) {
    if (Size > Cap - Cursor)
      return NoSpace;
    uint64_t Offset = Cursor;
    Cursor += Size;
    if (Cursor > HighWater)
      HighWater = Cursor;
    return Offset;
  }

  uint64_t cursor() const { return Cursor; }

  /// Deepest cursor position ever reached (never reset — allocation
  /// pressure accounting across the arena's lifetime).
  uint64_t highWater() const { return HighWater; }

  /// O(1) rewind of the allocator; memory contents are untouched.
  void resetCursor() { Cursor = 0; }

private:
  /// Returns the backing to an all-zero image and parks it on this
  /// thread's free list; false if it must be unmapped instead.
  bool park();

  /// The whole mapping, guard pages included, as munmap wants it back.
  uint8_t *Mapping = nullptr;
  uint64_t MappingBytes = 0;
  /// First data byte: Mapping + one guard page + the slack that rounds
  /// Cap up to whole pages, so data()[Cap] is the trailing guard's first
  /// byte.
  uint8_t *Bytes = nullptr;
  uint64_t Cap;
  uint64_t Cursor = 0;
  uint64_t HighWater = 0;
  /// Empty range is encoded as Lo == Cap, Hi == 0 so the first noteTouched
  /// initializes both bounds without a branch on "is this the first write".
  uint64_t TouchedLo;
  uint64_t TouchedHi = 0;
};

} // namespace smokestack

#endif // SMOKESTACK_SUPPORT_ARENA_H
