//===- core/PBox.cpp - Permutation box --------------------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PBox.h"

#include "support/Align.h"
#include "support/MathExtras.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <cassert>

using namespace smokestack;

PBoxTable::PBoxTable(AllocationSignature Sig, std::vector<LayoutRow> Rows,
                     bool PadPowerOfTwo, uint64_t ShuffleSeed)
    : Sig(std::move(Sig)) {
  assert(!Rows.empty() && "a table needs at least one row");
  NumSlots = static_cast<unsigned>(Rows.front().Offsets.size());

  // Permute the rows so adjacent indexes are not lexically correlated
  // (paper Section III-D, last step of table construction).
  SplitMix64 Shuffler(ShuffleSeed);
  for (size_t I = Rows.size(); I > 1; --I)
    std::swap(Rows[I - 1], Rows[Shuffler.nextBounded(I)]);

  uint64_t RealRows = Rows.size();
  NumRows = PadPowerOfTwo ? nextPowerOf2(RealRows) : RealRows;
  if (isPowerOf2(NumRows))
    RowMask = NumRows - 1;

  uint64_t MaxTotal = 0;
  Flat.reserve(NumRows * NumSlots);
  for (uint64_t Row = 0; Row != NumRows; ++Row) {
    // Padding rows wrap around to the start — the paper's "wrapping around
    // indexes n! to the nearest power-of-2".
    const LayoutRow &Src = Rows[Row % RealRows];
    Flat.insert(Flat.end(), Src.Offsets.begin(), Src.Offsets.end());
    if (Src.TotalSize > MaxTotal)
      MaxTotal = Src.TotalSize;
  }
  FrameSize = alignTo(MaxTotal == 0 ? 16 : MaxTotal, 16);
}

std::vector<LayoutRow> PBox::buildRows(const AllocationSignature &Sig,
                                       const PBoxOptions &Opts) {
  std::vector<AllocationSlot> Slots;
  Slots.reserve(Sig.size());
  for (auto [Size, Align] : Sig.slots())
    Slots.push_back({Size, Align, ""});

  if (Slots.size() <= Opts.MaxExhaustiveSlots)
    return generateAllPermutations(Slots);

  // Large allocation sets: a uniform sample of permutations instead of all
  // N! (documented substitution). Rows are drawn with a seeded generator so
  // builds are reproducible; SampledRows is kept a power of two.
  std::vector<LayoutRow> Rows;
  uint64_t Count = Opts.SampledRows;
  Rows.reserve(Count);
  SplitMix64 Sampler(Opts.ShuffleSeed ^ 0x9e3779b97f4a7c15ULL ^
                     (uint64_t(Slots.size()) << 32));
  unsigned N = static_cast<unsigned>(Slots.size());
  std::vector<unsigned> Perm(N);
  for (uint64_t R = 0; R != Count; ++R) {
    for (unsigned I = 0; I != N; ++I)
      Perm[I] = I;
    for (unsigned I = N; I > 1; --I)
      std::swap(Perm[I - 1], Perm[Sampler.nextBounded(I)]);
    LayoutRow Row;
    Row.Offsets.assign(N, 0);
    uint64_t Ind = 0;
    for (unsigned Orig : Perm) {
      Ind = alignTo(Ind, Slots[Orig].Align);
      Row.Offsets[Orig] = static_cast<uint32_t>(Ind);
      Ind += Slots[Orig].Size;
    }
    Row.TotalSize = static_cast<uint32_t>(Ind);
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

unsigned PBox::createTable(const AllocationSignature &Sig) {
  Tables.push_back(std::make_unique<PBoxTable>(
      Sig, buildRows(Sig, Opts), Opts.PowerOfTwoRows,
      Opts.ShuffleSeed + Tables.size()));
  return static_cast<unsigned>(Tables.size() - 1);
}

unsigned PBox::assignTable(const std::vector<AllocationSlot> &Slots,
                           AllocationSignature &OutSig) {
  assert(!Slots.empty() && "cannot build a table for zero allocations");
  OutSig = AllocationSignature(Slots);

  // Lookup key: the canonical multiset when sharing is on; the original
  // declaration order otherwise (so layout-equal but order-different
  // functions do NOT share, which is what the ablation measures).
  std::vector<std::pair<uint64_t, uint64_t>> Key;
  if (Opts.ShareByMultiset) {
    Key = OutSig.slots();
  } else {
    Key.reserve(Slots.size());
    for (const AllocationSlot &Slot : Slots)
      Key.emplace_back(Slot.Size, Slot.Align);
  }

  auto It = BySignature.find(Key);
  if (It != BySignature.end()) {
    ++ShareHits;
    return It->second;
  }

  if (Opts.RoundUpSharing && Opts.ShareByMultiset) {
    for (unsigned Id = 0; Id != Tables.size(); ++Id) {
      if (OutSig.isPrefixByOneOf(Tables[Id]->signature())) {
        ++ShareHits;
        BySignature.emplace(std::move(Key), Id);
        return Id;
      }
    }
  }

  unsigned Id = createTable(OutSig);
  BySignature.emplace(std::move(Key), Id);
  return Id;
}

uint64_t PBox::totalBytes() const {
  uint64_t Total = 0;
  for (const auto &Table : Tables)
    Total += Table->byteSize();
  return Total;
}

std::vector<uint8_t>
PBox::serialize(std::vector<uint64_t> &TableByteOffsets) const {
  std::vector<uint8_t> Blob;
  Blob.reserve(totalBytes());
  TableByteOffsets.clear();
  for (const auto &Table : Tables) {
    TableByteOffsets.push_back(Blob.size());
    for (uint32_t Offset : Table->flat()) {
      Blob.push_back(static_cast<uint8_t>(Offset));
      Blob.push_back(static_cast<uint8_t>(Offset >> 8));
      Blob.push_back(static_cast<uint8_t>(Offset >> 16));
      Blob.push_back(static_cast<uint8_t>(Offset >> 24));
    }
  }
  return Blob;
}
