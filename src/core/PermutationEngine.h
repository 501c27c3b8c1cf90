//===- core/PermutationEngine.h - Paper Algorithm 1 ------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The permutation generator of Smokestack (paper Algorithm 1): for a set of
/// stack allocations, enumerate the lexicographic permutations and compute,
/// for each, the alignment-correct byte offset of every allocation from the
/// frame base. Padding inserted to satisfy alignment differs between
/// permutations, which the paper counts as an extra entropy source.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_CORE_PERMUTATIONENGINE_H
#define SMOKESTACK_CORE_PERMUTATIONENGINE_H

#include "core/Allocation.h"

namespace smokestack {

/// Offsets of one stack-frame layout. Offsets[i] is the byte offset of
/// allocation i (in the engine's input order) from the frame base;
/// TotalSize is the frame bytes this layout occupies.
struct LayoutRow {
  std::vector<uint32_t> Offsets;
  uint32_t TotalSize = 0;
};

/// Computes the \p PIndex-th lexicographic permutation layout of \p Slots.
///
/// This is the body of the paper's PERMUTE loop: decode the permutation
/// index in the factorial number system, place allocations in that order,
/// ALIGN-ing the running offset before each placement. \p PIndex must be
/// < Slots.size()!.
LayoutRow decodePermutationLayout(uint64_t PIndex,
                                  const std::vector<AllocationSlot> &Slots);

/// Frame bytes sufficient for every possible permutation of \p Slots
/// (maximum TotalSize over all rows). For large N this is computed from a
/// worst-case padding bound instead of enumeration.
uint64_t maxFrameSize(const std::vector<AllocationSlot> &Slots);

} // namespace smokestack

#endif // SMOKESTACK_CORE_PERMUTATIONENGINE_H
