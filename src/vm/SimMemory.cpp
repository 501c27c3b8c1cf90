//===- vm/SimMemory.cpp - Simulated flat data memory ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/SimMemory.h"

#include "support/Align.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace smokestack;

const char *smokestack::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::UnmappedAccess:
    return "unmapped-access";
  case TrapKind::ReadOnlyViolation:
    return "read-only-violation";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::FunctionIdViolation:
    return "function-id-violation";
  case TrapKind::CanaryViolation:
    return "canary-violation";
  case TrapKind::ExplicitTrap:
    return "explicit-trap";
  case TrapKind::DivisionByZero:
    return "division-by-zero";
  case TrapKind::OutOfFuel:
    return "out-of-fuel";
  case TrapKind::BadCall:
    return "bad-call";
  case TrapKind::RandomnessFailure:
    return "randomness-failure";
  case TrapKind::WorkerCrash:
    return "worker-crash";
  }
  smokestack_unreachable("unknown trap kind");
}

SimMemory::SimMemory()
    : Globals{MemoryMap::GlobalsBase, ByteArena(MemoryMap::GlobalsSize)},
      Heap{MemoryMap::HeapBase, ByteArena(MemoryMap::HeapSize)},
      Stack{MemoryMap::StackBase, ByteArena(MemoryMap::StackSize)} {}

namespace {

/// True if [Addr, Addr+Size) lies inside the read-only segment.
bool inReadOnly(uint64_t Addr, uint64_t Size) {
  return Addr >= MemoryMap::RODataBase && Size <= MemoryMap::RODataSize &&
         Addr - MemoryMap::RODataBase <= MemoryMap::RODataSize - Size;
}

} // namespace

SimMemory::Segment *SimMemory::findSegment(uint64_t Addr, uint64_t Size) {
  // Segment bases are 16 MiB-aligned and no segment spans a 16 MiB block
  // boundary it does not own, so the top address byte picks the candidate
  // directly; contains() then applies the exact bounds (this is the only
  // dispatch on the load/store hot path, replacing a segment scan). The
  // read-only segment is not an arena, so it is never returned here.
  Segment *Seg;
  switch (Addr >> 24) {
  case 0x00:
    Seg = &Globals;
    break;
  case 0x04:
    Seg = &Heap;
    break;
  case 0x07:
    Seg = &Stack;
    break;
  default:
    return nullptr;
  }
  return Seg->contains(Addr, Size) ? Seg : nullptr;
}

const SimMemory::Segment *SimMemory::findSegment(uint64_t Addr,
                                                 uint64_t Size) const {
  return const_cast<SimMemory *>(this)->findSegment(Addr, Size);
}

void SimMemory::raiseUnmapped(uint64_t Addr, uint64_t Size, const char *What) {
  Trap = TrapKind::UnmappedAccess;
  TrapMessage = formatString("%s of %llu bytes at 0x%llx hit unmapped memory",
                             What, (unsigned long long)Size,
                             (unsigned long long)Addr);
}

bool SimMemory::read(uint64_t Addr, void *Out, uint64_t Size) {
  if (const Segment *Seg = findSegment(Addr, Size)) {
    std::memcpy(Out, Seg->Mem.data() + (Addr - Seg->Base), Size);
    return true;
  }
  // Read-only data. The hot case — the next entry of a P-BOX row — lies
  // inside the region the previous read hit; the wrapping differences
  // reject addresses below it, and the region lies inside the segment.
  uint64_t Off = Addr - MemoryMap::RODataBase;
  if (Off - Hot.Offset < Hot.Size && Size <= Hot.end() - Off) {
    std::memcpy(Out, Hot.Host + (Off - Hot.Offset), Size);
    return true;
  }
  if (inReadOnly(Addr, Size)) {
    readReadOnly(Off, static_cast<uint8_t *>(Out), Size);
    return true;
  }
  raiseUnmapped(Addr, Size, "read");
  return false;
}

void SimMemory::readReadOnly(uint64_t Off, uint8_t *Out, uint64_t Size) {
  // Regions are sorted and disjoint, so their ends ascend too: start at the
  // first region that ends past Off.
  auto It = std::upper_bound(
      ReadOnly.begin(), ReadOnly.end(), Off,
      [](uint64_t O, const ReadOnlyRegion &R) { return O < R.end(); });
  // A read inside one initializer makes that region the hot one.
  if (It != ReadOnly.end() && It->Offset <= Off && Off + Size <= It->end()) {
    Hot = *It;
    std::memcpy(Out, Hot.Host + (Off - Hot.Offset), Size);
    return;
  }
  // Otherwise zero-fill, then copy every overlapping region.
  std::memset(Out, 0, Size);
  for (; It != ReadOnly.end() && It->Offset < Off + Size; ++It) {
    uint64_t Lo = std::max(Off, It->Offset);
    uint64_t Hi = std::min(Off + Size, It->end());
    std::memcpy(Out + (Lo - Off), It->Host + (Lo - It->Offset), Hi - Lo);
  }
}

bool SimMemory::write(uint64_t Addr, const void *Data, uint64_t Size) {
  Segment *Seg = findSegment(Addr, Size);
  if (!Seg) {
    if (!inReadOnly(Addr, Size)) {
      raiseUnmapped(Addr, Size, "write");
      return false;
    }
    Trap = TrapKind::ReadOnlyViolation;
    TrapMessage =
        formatString("write of %llu bytes at 0x%llx into read-only 'rodata'",
                     (unsigned long long)Size, (unsigned long long)Addr);
    return false;
  }
  uint64_t Off = Addr - Seg->Base;
  std::memcpy(Seg->Mem.data() + Off, Data, Size);
  Seg->Mem.noteTouched(Off, Off + Size);
  return true;
}

void SimMemory::mapReadOnly(std::vector<ReadOnlyRegion> Regions) {
  for (size_t I = 0; I != Regions.size(); ++I) {
    assert(Regions[I].Size && Regions[I].end() <= MemoryMap::RODataSize &&
           "read-only region must be non-empty and inside the segment");
    assert((I == 0 || Regions[I - 1].end() <= Regions[I].Offset) &&
           "read-only regions must be sorted and disjoint");
  }
  ReadOnly = std::move(Regions);
  Hot = {};
}

bool SimMemory::loadInt(uint64_t Addr, uint64_t Size, uint64_t &Out) {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "scalar loads are 1/2/4/8 bytes");
  uint64_t Value = 0;
  if (!read(Addr, &Value, Size))
    return false;
  Out = Value;
  return true;
}

bool SimMemory::storeInt(uint64_t Addr, uint64_t Size, uint64_t Value) {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "scalar stores are 1/2/4/8 bytes");
  return write(Addr, &Value, Size);
}

bool SimMemory::readCString(uint64_t Addr, std::string &Out,
                            uint64_t MaxLen) {
  Out.clear();
  for (uint64_t I = 0; I != MaxLen; ++I) {
    uint8_t Byte;
    if (!read(Addr + I, &Byte, 1))
      return false;
    if (Byte == 0)
      return true;
    Out.push_back(static_cast<char>(Byte));
  }
  return true;
}

bool SimMemory::isMapped(uint64_t Addr, uint64_t Size) const {
  return findSegment(Addr, Size) != nullptr || inReadOnly(Addr, Size);
}

uint64_t SimMemory::scrubStack(uint64_t FromAddr) {
  uint64_t From = FromAddr < MemoryMap::StackBase ? MemoryMap::StackBase
                                                  : FromAddr;
  if (From >= MemoryMap::StackTop)
    return 0;
  uint64_t Zeroed = MemoryMap::StackTop - From;
  std::memset(Stack.Mem.data() + (From - MemoryMap::StackBase), 0, Zeroed);
  // Scrubbing writes zeroes — the segment's fresh-state value — so the
  // touched range must NOT widen here: it brackets potentially-nonzero
  // bytes, and widening it would inflate every later restore.
  return Zeroed;
}

uint64_t SimMemory::resetHeap() {
  uint64_t Zeroed = Heap.Mem.cursor();
  if (Zeroed)
    std::memset(Heap.Mem.data(), 0, Zeroed);
  Heap.Mem.resetCursor();
  return Zeroed;
}

uint64_t SimMemory::heapAlloc(uint64_t Size) {
  if (Size == 0)
    Size = 1;
  // alignTo(Size, 16) wraps to 0 for Size > UINT64_MAX - 15, which used to
  // slip past the exhaustion check and hand out a bogus allocation backed
  // by no space. Any Size beyond the segment can never fit, so reject it
  // before the round-up can overflow; tryAllocate() phrases its own check
  // against remaining capacity, so the cursor advance cannot wrap either.
  if (Size > MemoryMap::HeapSize)
    return 0;
  uint64_t Offset = Heap.Mem.tryAllocate(alignTo(Size, 16));
  if (Offset == ByteArena::NoSpace)
    return 0;
  return MemoryMap::HeapBase + Offset;
}
