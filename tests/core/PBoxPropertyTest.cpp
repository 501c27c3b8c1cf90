//===- tests/core/PBoxPropertyTest.cpp - P-BOX property sweeps -----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps over the P-BOX machinery: for many slot
/// configurations, every row of every (possibly shared or borrowed) table
/// must lay out every function's allocations soundly — aligned, disjoint,
/// inside the frame — through the same canonical-column mapping the
/// instrumentation uses.
///
//===----------------------------------------------------------------------===//

#include "core/PBox.h"

#include "support/Align.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace smokestack;

namespace {

/// Deterministically builds a slot mix for a given seed: 1..7 slots drawn
/// from scalars and buffers with varied alignment.
std::vector<AllocationSlot> slotMix(uint64_t Seed) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<AllocationSlot> Slots;
  unsigned N = 1 + Rng.nextBounded(7);
  for (unsigned I = 0; I != N; ++I) {
    switch (Rng.nextBounded(5)) {
    case 0:
      Slots.push_back({1, 1, "c"});
      break;
    case 1:
      Slots.push_back({2, 2, "s"});
      break;
    case 2:
      Slots.push_back({4, 4, "i"});
      break;
    case 3:
      Slots.push_back({8, 8, "l"});
      break;
    default:
      Slots.push_back({8u << Rng.nextBounded(5), 1, "buf"});
      break;
    }
  }
  return Slots;
}

/// Checks that, for function slots \p Slots mapped through \p Sig into
/// \p Table, every row gives aligned, pairwise-disjoint, in-frame objects.
void expectSoundForFunction(const PBoxTable &Table,
                            const AllocationSignature &Sig,
                            const std::vector<AllocationSlot> &Slots) {
  const std::vector<unsigned> &Canon = Sig.originalToCanonical();
  for (uint64_t Row = 0; Row != Table.numRows(); ++Row) {
    std::vector<std::pair<uint64_t, uint64_t>> Intervals;
    for (size_t I = 0; I != Slots.size(); ++I) {
      uint64_t Off = Table.offsetAt(Row, Canon[I]);
      ASSERT_TRUE(isAligned(Off, Slots[I].Align))
          << "row " << Row << " slot " << I;
      ASSERT_LE(Off + Slots[I].Size, Table.frameSize());
      Intervals.emplace_back(Off, Off + Slots[I].Size);
    }
    std::sort(Intervals.begin(), Intervals.end());
    for (size_t I = 1; I != Intervals.size(); ++I)
      ASSERT_LE(Intervals[I - 1].second, Intervals[I].first)
          << "row " << Row << " slots overlap";
  }
}

/// Builds \p Box's rows; the tables read them from the returned blob.
std::vector<uint8_t> buildRows(PBox &Box) {
  std::vector<uint64_t> Offsets;
  return Box.build(Offsets);
}

class PBoxPropertyTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(PBoxPropertyTest, EveryRowSoundThroughCanonicalMapping) {
  std::vector<AllocationSlot> Slots = slotMix(GetParam());
  PBox Box;
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(Slots, Sig);
  std::vector<uint8_t> Blob = buildRows(Box);
  expectSoundForFunction(Box.table(Id), Sig, Slots);
}

TEST_P(PBoxPropertyTest, ReversedDeclarationSharesAndStaysSound) {
  std::vector<AllocationSlot> Slots = slotMix(GetParam());
  std::vector<AllocationSlot> Reversed(Slots.rbegin(), Slots.rend());

  PBox Box;
  AllocationSignature SigA, SigB;
  unsigned IdA = Box.assignTable(Slots, SigA);
  unsigned IdB = Box.assignTable(Reversed, SigB);
  EXPECT_EQ(IdA, IdB) << "same multiset must share one table";
  std::vector<uint8_t> Blob = buildRows(Box);
  expectSoundForFunction(Box.table(IdA), SigA, Slots);
  expectSoundForFunction(Box.table(IdB), SigB, Reversed);
}

TEST_P(PBoxPropertyTest, BorrowedTableLaysOutTheSmallerFunction) {
  std::vector<AllocationSlot> Big = slotMix(GetParam());
  // Append a primitive so Big = Small + one trailing scalar in canonical
  // order (primitives sort last).
  Big.push_back({4, 4, "extra"});
  std::vector<AllocationSlot> Small(Big.begin(), Big.end() - 1);

  PBox Box;
  AllocationSignature SigBig, SigSmall;
  unsigned IdBig = Box.assignTable(Big, SigBig);
  unsigned IdSmall = Box.assignTable(Small, SigSmall);
  std::vector<uint8_t> Blob = buildRows(Box);
  if (IdBig == IdSmall) {
    // Round-up sharing engaged: the smaller function reads the first
    // columns of the bigger table and must still be sound.
    expectSoundForFunction(Box.table(IdSmall), SigSmall, Small);
  } else {
    // Canonical order put the extra primitive mid-sequence (e.g. an i4
    // before byte buffers) — sharing legitimately declined; both tables
    // must still be individually sound.
    expectSoundForFunction(Box.table(IdBig), SigBig, Big);
    expectSoundForFunction(Box.table(IdSmall), SigSmall, Small);
  }
}

TEST_P(PBoxPropertyTest, RowMaskAlwaysValidWhenPresent) {
  std::vector<AllocationSlot> Slots = slotMix(GetParam());
  PBox Box;
  AllocationSignature Sig;
  const PBoxTable &Table = Box.table(Box.assignTable(Slots, Sig));
  if (Table.rowMask()) {
    EXPECT_TRUE(isPowerOf2(Table.numRows()));
    EXPECT_EQ(Table.rowMask(), Table.numRows() - 1);
  }
  EXPECT_EQ(Table.rowStride(), uint64_t(Table.numSlots()) * 4);
}

INSTANTIATE_TEST_SUITE_P(Mixes, PBoxPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));
