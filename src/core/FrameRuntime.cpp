//===- core/FrameRuntime.cpp - Native permuted-frame runtime ---------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FrameRuntime.h"

#include "obs/Histogram.h"
#include "rng/RandomSource.h"
#include "support/Statistics.h"

#include <atomic>

using namespace smokestack;

namespace {

/// Process-wide function-id allocator for native frames.
std::atomic<uint64_t> NextNativeFunctionId{0x4E41'0001};

Statistic NumPermutedFrames("core.frames-permuted",
                            "Native permuted frames constructed");
Histogram PermutationRow(
    "core.permutation-row",
    "P-BOX row index selected per permuted frame (log2 buckets)");

} // namespace

PBoxTable FrameDescriptor::buildTable(std::vector<AllocationSlot> &Slots,
                                      const PBoxOptions &Opts) {
  // Declaration-order layout for the uninstrumented baseline comparison.
  LayoutRow Baseline = decodePermutationLayout(0, Slots);
  BaselineOffsets = std::move(Baseline.Offsets);

  Slots.push_back({8, 8, "__ss_fnid"});
  AllocationSignature Sig(Slots);
  Canon = Sig.originalToCanonical();
  // Same rows as the pass's P-BOX: exhaustive up to MaxExhaustiveSlots
  // (identifier included), sampled past it; built into rows this
  // descriptor owns.
  PBoxTable Table(Sig, Opts, Opts.ShuffleSeed);
  Rows.resize(Table.numRows() * Table.numSlots());
  Table.fill(Rows.data());
  return Table;
}

FrameDescriptor::FrameDescriptor(std::vector<AllocationSlot> Slots,
                                 PBoxOptions Opts)
    : NumUserSlots(static_cast<unsigned>(Slots.size())),
      Table(buildTable(Slots, Opts)),
      FunctionId(NextNativeFunctionId.fetch_add(1)) {}

PermutedFrame::PermutedFrame(const FrameDescriptor &Desc, RandomSource &Rng,
                             void *Slab)
    : Desc(Desc), Base(static_cast<char *>(Slab)) {
  // Buffered draw: identical to next() at the default batch size of 1;
  // callers that enable batching amortize the per-draw setup across the
  // whole refill (see RandomSource::setBatchSize).
  Rand = Rng.nextBuffered();
  const PBoxTable &Table = Desc.table();
  Row = Table.rowMask() ? (Rand & Table.rowMask()) : (Rand % Table.numRows());
  *identifierSlot() = Desc.functionId() ^ Rand;
  ++NumPermutedFrames;
  PermutationRow.record(Row);
}

bool PermutedFrame::checkIdentifier() const {
  return (*identifierSlot() ^ Rand) == Desc.functionId();
}
