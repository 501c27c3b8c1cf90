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
#include <bit>
#include <cassert>
#include <numeric>

using namespace smokestack;

namespace {

/// Places the canonical slots in \p Order (Algorithm 1's PERMUTE body:
/// ALIGN the running offset, place, advance), writing each slot's offset
/// into \p Row. Returns the frame bytes the layout occupies.
uint32_t placeRow(const std::vector<std::pair<uint64_t, uint64_t>> &Slots,
                  const std::vector<unsigned> &Order, uint32_t *Row) {
  uint64_t Ind = 0;
  for (unsigned Orig : Order) {
    Ind = alignTo(Ind, Slots[Orig].second);
    Row[Orig] = static_cast<uint32_t>(Ind);
    Ind += Slots[Orig].first;
  }
  return static_cast<uint32_t>(Ind);
}

} // namespace

PBoxTable::PBoxTable(AllocationSignature Signature, const PBoxOptions &Opts,
                     uint64_t ShuffleSeed)
    : Sig(std::move(Signature)), NumSlots(Sig.size()),
      Exhaustive(NumSlots <= Opts.MaxExhaustiveSlots),
      SamplerSeed(Opts.ShuffleSeed ^ 0x9e3779b97f4a7c15ULL ^
                  (uint64_t(NumSlots) << 32)),
      ShuffleSeed(ShuffleSeed) {
  assert((!Exhaustive || NumSlots <= 10) &&
         "exhaustive P_Table is only for small allocation sets");
  RealRows = Exhaustive ? factorial(NumSlots) : Opts.SampledRows;
  assert(RealRows != 0 && "a table needs at least one row");
  NumRows = Opts.PowerOfTwoRows ? nextPowerOf2(RealRows) : RealRows;
  if (isPowerOf2(NumRows))
    RowMask = NumRows - 1;
}

void PBoxTable::fill(uint32_t *Dest) {
  const std::vector<std::pair<uint64_t, uint64_t>> &Slots = Sig.slots();
  std::vector<unsigned> Perm(NumSlots);
  std::iota(Perm.begin(), Perm.end(), 0u);
  uint32_t MaxTotal = 0;
  auto Emit = [&](uint64_t I) {
    MaxTotal = std::max(MaxTotal, placeRow(Slots, Perm, Dest + I * NumSlots));
  };
  if (Exhaustive) {
    // All N! rows in lexical order: next_permutation over distinct slot
    // indices visits them in the order of Algorithm 1's factorial-base
    // decode (decodePermutationLayout).
    uint64_t I = 0;
    do
      Emit(I++);
    while (std::next_permutation(Perm.begin(), Perm.end()));
  } else {
    // Large allocation sets: a uniform sample of permutations instead of
    // all N! (documented substitution), drawn with a seeded generator so
    // builds are reproducible.
    SplitMix64 Sampler(SamplerSeed);
    for (uint64_t I = 0; I != RealRows; ++I) {
      std::iota(Perm.begin(), Perm.end(), 0u);
      for (unsigned K = NumSlots; K > 1; --K)
        std::swap(Perm[K - 1], Perm[Sampler.nextBounded(K)]);
      Emit(I);
    }
  }

  // Permute the rows so adjacent indexes are not lexically correlated
  // (paper Section III-D, last step of table construction).
  SplitMix64 Shuffler(ShuffleSeed);
  for (uint64_t I = RealRows; I > 1; --I) {
    uint64_t J = Shuffler.nextBounded(I);
    if (J != I - 1)
      std::swap_ranges(Dest + (I - 1) * NumSlots, Dest + I * NumSlots,
                       Dest + J * NumSlots);
  }

  // Padding rows wrap around to the start — the paper's "wrapping around
  // indexes n! to the nearest power-of-2" (at most RealRows of them).
  std::copy_n(Dest, (NumRows - RealRows) * NumSlots,
              Dest + RealRows * NumSlots);
  FrameSize = alignTo(MaxTotal == 0 ? 16 : MaxTotal, 16);
  Rows = Dest;
}

unsigned PBox::createTable(const AllocationSignature &Sig) {
  Tables.push_back(
      std::make_unique<PBoxTable>(Sig, Opts, Opts.ShuffleSeed + Tables.size()));
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

std::vector<uint8_t> PBox::build(std::vector<uint64_t> &TableByteOffsets) {
  // The blob holds little-endian u32 offsets, which is the host's own
  // layout of a table's rows, so each table fills its slice directly.
  static_assert(std::endian::native == std::endian::little,
                "tables fill host-order u32 offsets into the blob");
  std::vector<uint8_t> Blob(totalBytes());
  TableByteOffsets.clear();
  uint64_t Offset = 0;
  for (const auto &Table : Tables) {
    TableByteOffsets.push_back(Offset);
    // operator new aligns the blob for any scalar and every table is a
    // whole number of u32s, so each slice is u32-aligned.
    Table->fill(reinterpret_cast<uint32_t *>(Blob.data() + Offset));
    Offset += Table->byteSize();
  }
  return Blob;
}
