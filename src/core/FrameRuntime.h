//===- core/FrameRuntime.h - Native permuted-frame runtime -----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native-execution counterpart of the instrumentation pass, analogous
/// to the compiler-rt runtime the paper links into hardened binaries. A
/// FrameDescriptor is built once per function (compile time); a
/// PermutedFrame is constructed at each invocation and performs exactly the
/// work the instrumented prologue does — one RNG draw, one P-BOX row
/// lookup, slice-pointer computation, and the identifier tag store — so
/// timing it under google-benchmark measures the paper's Figure 3 overhead
/// on real hardware.
///
/// Typical use in a hardened function:
/// \code
///   static const FrameDescriptor Desc({{64,1,"buf"},{8,8,"len"}}, {});
///   char Slab alignas(16) [Desc.frameSize()];
///   PermutedFrame Frame(Desc, Rng, Slab);
///   char *Buf = static_cast<char *>(Frame.slot(0));
///   uint64_t *Len = static_cast<uint64_t *>(Frame.slot(1));
///   ...
///   bool Intact = Frame.checkIdentifier(); // epilogue check
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_CORE_FRAMERUNTIME_H
#define SMOKESTACK_CORE_FRAMERUNTIME_H

#include "core/PBox.h"

namespace smokestack {

class RandomSource;

/// Compile-time description of one function's permutable frame.
class FrameDescriptor {
public:
  /// Builds the permutation table for \p Slots (an identifier slot is
  /// appended automatically).
  explicit FrameDescriptor(std::vector<AllocationSlot> Slots,
                           PBoxOptions Opts = PBoxOptions());

  /// Bytes the caller must provide for the slab (16-byte aligned).
  uint64_t frameSize() const { return Table.frameSize(); }

  unsigned numSlots() const { return NumUserSlots; }
  const PBoxTable &table() const { return Table; }

  /// Canonical column of user slot \p I.
  unsigned canonicalColumn(unsigned I) const { return Canon[I]; }

  /// Canonical column of the identifier slot.
  unsigned identifierColumn() const { return Canon.back(); }

  /// The per-function identifier baked in at construction.
  uint64_t functionId() const { return FunctionId; }

  /// Offset of user slot \p I under the unrandomized (declaration-order)
  /// layout — what an uninstrumented build would use. Benchmarks measure
  /// instrumentation overhead against this baseline.
  uint32_t baselineOffset(unsigned I) const { return BaselineOffsets[I]; }

private:
  PBoxTable buildTable(std::vector<AllocationSlot> &Slots,
                       const PBoxOptions &Opts);

  unsigned NumUserSlots;
  std::vector<unsigned> Canon;
  std::vector<uint32_t> BaselineOffsets;
  /// The storage Table fills and reads (declared first: buildTable fills
  /// it while Table is being initialized).
  std::vector<uint32_t> Rows;
  PBoxTable Table;
  uint64_t FunctionId;
};

/// One invocation's randomized frame. Construction is the prologue;
/// checkIdentifier() is the epilogue.
class PermutedFrame {
public:
  /// Draws one random value from \p Rng and lays the frame out in \p Slab
  /// (which must hold at least Desc.frameSize() bytes, 16-byte aligned).
  PermutedFrame(const FrameDescriptor &Desc, RandomSource &Rng, void *Slab);

  /// Address of user slot \p I under this invocation's permutation.
  void *slot(unsigned I) const {
    return Base + Desc.table().offsetAt(Row, Desc.canonicalColumn(I));
  }

  /// Typed accessor.
  template <typename T> T *slotAs(unsigned I) const {
    return static_cast<T *>(slot(I));
  }

  /// Epilogue function-identifier check; false means the tag slot was
  /// corrupted since the prologue.
  bool checkIdentifier() const;

  /// The selected row (exposed for tests).
  uint64_t row() const { return Row; }

private:
  uint64_t *identifierSlot() const {
    return reinterpret_cast<uint64_t *>(
        Base + Desc.table().offsetAt(Row, Desc.identifierColumn()));
  }

  const FrameDescriptor &Desc;
  char *Base;
  uint64_t Row;
  uint64_t Rand;
};

} // namespace smokestack

#endif // SMOKESTACK_CORE_FRAMERUNTIME_H
