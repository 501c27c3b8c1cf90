//===- core/PermutationEngine.cpp - Paper Algorithm 1 ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PermutationEngine.h"

#include "support/Align.h"
#include "support/MathExtras.h"

#include <cassert>
#include <cstddef>

using namespace smokestack;

LayoutRow
smokestack::decodePermutationLayout(uint64_t PIndex,
                                    const std::vector<AllocationSlot> &Slots) {
  unsigned N = static_cast<unsigned>(Slots.size());
  assert(N <= MaxFactorialArg && "too many allocations to permute");
  assert(PIndex < factorial(N) && "permutation index out of range");

  // Algorithm 1, PERMUTE inner loop. `Remaining` plays the role of the
  // shrinking Alloca list: decoding digit e in the factorial number system
  // selects the e-th not-yet-placed allocation.
  std::vector<unsigned> Remaining;
  Remaining.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Remaining.push_back(I);

  LayoutRow Row;
  Row.Offsets.assign(N, 0);
  uint64_t Temp = PIndex;
  uint64_t Ind = 0;
  for (unsigned AIndex = 0; AIndex != N; ++AIndex) {
    uint64_t CurrFact = factorial(N - AIndex - 1);
    uint64_t E = Temp / CurrFact;
    Temp %= CurrFact;
    unsigned Orig = Remaining[E];
    Remaining.erase(Remaining.begin() + static_cast<ptrdiff_t>(E));

    Ind = alignTo(Ind, Slots[Orig].Align); // the paper's ALIGN procedure
    Row.Offsets[Orig] = static_cast<uint32_t>(Ind);
    Ind += Slots[Orig].Size;
  }
  Row.TotalSize = static_cast<uint32_t>(Ind);
  return Row;
}

uint64_t smokestack::maxFrameSize(const std::vector<AllocationSlot> &Slots) {
  // Upper bound: every placement may waste at most (Align-1) padding bytes.
  // Exact for the worst permutation when alignments are powers of two and
  // cheap to compute for any N.
  uint64_t Bound = 0;
  for (const AllocationSlot &Slot : Slots)
    Bound += Slot.Size + (Slot.Align - 1);
  return Bound;
}
