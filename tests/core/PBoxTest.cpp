//===- tests/core/PBoxTest.cpp - P-BOX tests -----------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PBox.h"

#include "support/MathExtras.h"

#include <gtest/gtest.h>
#include <set>

using namespace smokestack;

namespace {

std::vector<AllocationSlot> intDouble() {
  return {{4, 4, "i"}, {8, 8, "d"}};
}
std::vector<AllocationSlot> doubleInt() {
  return {{8, 8, "d"}, {4, 4, "i"}};
}

/// Builds \p Box's rows; the tables read them from the returned blob.
std::vector<uint8_t> buildRows(PBox &Box) {
  std::vector<uint64_t> Offsets;
  return Box.build(Offsets);
}

} // namespace

TEST(PBoxTest, PowerOfTwoPadding) {
  PBox Box;
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(
      {{8, 8, "a"}, {4, 4, "b"}, {1, 1, "c"}}, Sig);
  const PBoxTable &Table = Box.table(Id);
  // 3! = 6 rows, padded to 8.
  EXPECT_EQ(Table.numRows(), 8u);
  EXPECT_EQ(Table.rowMask(), 7u);
}

TEST(PBoxTest, WithoutPowerOfTwoPaddingKeepsFactorialRows) {
  PBoxOptions Opts;
  Opts.PowerOfTwoRows = false;
  PBox Box(Opts);
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(
      {{8, 8, "a"}, {4, 4, "b"}, {1, 1, "c"}}, Sig);
  EXPECT_EQ(Box.table(Id).numRows(), 6u);
  EXPECT_EQ(Box.table(Id).rowMask(), 0u) << "6 is not a power of two";
}

TEST(PBoxTest, PaddedRowsWrapAround) {
  // The two pad rows of a 6->8 padding must duplicate existing rows.
  PBox Box;
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(
      {{8, 8, "a"}, {4, 4, "b"}, {1, 1, "c"}}, Sig);
  std::vector<uint8_t> Blob = buildRows(Box);
  const PBoxTable &Table = Box.table(Id);
  std::set<std::vector<uint32_t>> Unique;
  for (uint64_t Row = 0; Row != Table.numRows(); ++Row) {
    std::vector<uint32_t> Offsets;
    for (unsigned Slot = 0; Slot != Table.numSlots(); ++Slot)
      Offsets.push_back(Table.offsetAt(Row, Slot));
    Unique.insert(Offsets);
  }
  EXPECT_EQ(Unique.size(), 6u) << "8 physical rows over 6 distinct layouts";
}

TEST(PBoxTest, RowsAreShuffled) {
  // After the compile-time row shuffle, rows must NOT be in lexical order
  // (that ordering is what lets an attacker infer neighbors).
  PBox Box;
  AllocationSignature Sig;
  std::vector<AllocationSlot> Slots = {
      {8, 8, "a"}, {16, 8, "b"}, {24, 8, "c"}, {32, 8, "d"}};
  unsigned Id = Box.assignTable(Slots, Sig);
  std::vector<uint8_t> Blob = buildRows(Box);
  const PBoxTable &Table = Box.table(Id);

  bool InLexicalOrder = true;
  for (uint64_t Row = 0; Row != factorial(4); ++Row) {
    LayoutRow Lexical = decodePermutationLayout(Row, Slots);
    for (unsigned Slot = 0; Slot != 4; ++Slot)
      if (Table.offsetAt(Row, Sig.originalToCanonical()[Slot]) !=
          Lexical.Offsets[Slot])
        InLexicalOrder = false;
  }
  EXPECT_FALSE(InLexicalOrder);
}

TEST(PBoxTest, ShareByMultisetMergesReorderedSignatures) {
  PBox Box;
  AllocationSignature SigA, SigB;
  unsigned IdA = Box.assignTable(intDouble(), SigA);
  unsigned IdB = Box.assignTable(doubleInt(), SigB);
  EXPECT_EQ(IdA, IdB) << "paper example: f1(int,double) shares with "
                         "f2(double,int)";
  EXPECT_EQ(Box.numTables(), 1u);
  EXPECT_EQ(Box.shareHits(), 1u);
  // The canonical mapping differs per function even though the table is
  // shared: the int maps to the same canonical column in both.
  EXPECT_EQ(SigA.originalToCanonical()[0], SigB.originalToCanonical()[1]);
  EXPECT_EQ(SigA.originalToCanonical()[1], SigB.originalToCanonical()[0]);
}

TEST(PBoxTest, WithoutMultisetSharingTablesAreDistinct) {
  PBoxOptions Opts;
  Opts.ShareByMultiset = false;
  Opts.RoundUpSharing = false;
  PBox Box(Opts);
  AllocationSignature Sig;
  unsigned IdA = Box.assignTable(intDouble(), Sig);
  unsigned IdB = Box.assignTable(doubleInt(), Sig);
  EXPECT_NE(IdA, IdB);
  EXPECT_EQ(Box.numTables(), 2u);
}

TEST(PBoxTest, RoundUpSharingBorrowsBiggerTable) {
  PBox Box;
  AllocationSignature Sig;
  // Paper example: f1(double,double,int) and f2(double,double).
  unsigned Big = Box.assignTable(
      {{8, 8, "d1"}, {8, 8, "d2"}, {4, 4, "i"}}, Sig);
  unsigned Small = Box.assignTable({{8, 8, "d1"}, {8, 8, "d2"}}, Sig);
  EXPECT_EQ(Big, Small);
  EXPECT_EQ(Box.numTables(), 1u);
  std::vector<uint8_t> Blob = buildRows(Box);
  // The smaller function pays the bigger table's frame (extra padding).
  EXPECT_EQ(Box.table(Small).numSlots(), 3u);
  EXPECT_GE(Box.table(Small).frameSize(), 16u);
}

TEST(PBoxTest, RoundUpSharingDisabledBuildsBothTables) {
  PBoxOptions Opts;
  Opts.RoundUpSharing = false;
  PBox Box(Opts);
  AllocationSignature Sig;
  unsigned Big =
      Box.assignTable({{8, 8, "d1"}, {8, 8, "d2"}, {4, 4, "i"}}, Sig);
  unsigned Small = Box.assignTable({{8, 8, "d1"}, {8, 8, "d2"}}, Sig);
  EXPECT_NE(Big, Small);
  EXPECT_EQ(Box.numTables(), 2u);
}

TEST(PBoxTest, RoundUpRequiresPrimitiveExtra) {
  PBox Box;
  AllocationSignature Sig;
  // Extra slot is a 64-byte buffer: too big to round up into.
  unsigned Big =
      Box.assignTable({{8, 8, "d1"}, {8, 8, "d2"}, {64, 1, "buf"}}, Sig);
  unsigned Small = Box.assignTable({{8, 8, "d1"}, {8, 8, "d2"}}, Sig);
  EXPECT_NE(Big, Small);
}

TEST(PBoxTest, SerializeRoundTrip) {
  PBox Box;
  AllocationSignature Sig;
  Box.assignTable({{4, 4, "i"}, {8, 8, "d"}}, Sig);
  Box.assignTable({{16, 8, "b"}, {8, 8, "x"}, {1, 1, "c"}}, Sig);
  uint64_t Planned = Box.totalBytes();
  std::vector<uint64_t> Offsets;
  std::vector<uint8_t> Blob = Box.build(Offsets);
  EXPECT_EQ(Planned, Blob.size()) << "the plan sizes the blob exactly";
  ASSERT_EQ(Offsets.size(), Box.numTables());
  EXPECT_EQ(Blob.size(), Box.totalBytes());
  for (unsigned Id = 0; Id != Box.numTables(); ++Id) {
    const PBoxTable &Table = Box.table(Id);
    for (uint64_t Row = 0; Row != Table.numRows(); ++Row)
      for (unsigned Slot = 0; Slot != Table.numSlots(); ++Slot) {
        uint64_t Byte = Offsets[Id] + (Row * Table.numSlots() + Slot) * 4;
        uint32_t Decoded = Blob[Byte] | (Blob[Byte + 1] << 8) |
                           (Blob[Byte + 2] << 16) | (Blob[Byte + 3] << 24);
        ASSERT_EQ(Decoded, Table.offsetAt(Row, Slot));
      }
  }
}

TEST(PBoxTest, LargeAllocationSetUsesSampledRows) {
  PBoxOptions Opts;
  Opts.MaxExhaustiveSlots = 8;
  Opts.SampledRows = 1024;
  PBox Box(Opts);
  std::vector<AllocationSlot> Slots;
  for (unsigned I = 0; I != 12; ++I)
    Slots.push_back({8 + 8 * (I % 3), 8, "s" + std::to_string(I)});
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(Slots, Sig);
  std::vector<uint8_t> Blob = buildRows(Box);
  const PBoxTable &Table = Box.table(Id);
  EXPECT_EQ(Table.numRows(), 1024u);
  EXPECT_EQ(Table.rowMask(), 1023u);

  // Every sampled row must still be a sound layout.
  for (uint64_t Row = 0; Row != Table.numRows(); ++Row) {
    std::vector<std::pair<uint64_t, uint64_t>> Intervals;
    for (unsigned Slot = 0; Slot != Table.numSlots(); ++Slot) {
      uint64_t Off = Table.offsetAt(Row, Slot);
      uint64_t Size = Sig.slots()[Slot].first;
      ASSERT_EQ(Off % Sig.slots()[Slot].second, 0u);
      Intervals.emplace_back(Off, Off + Size);
    }
    std::sort(Intervals.begin(), Intervals.end());
    for (size_t I = 1; I != Intervals.size(); ++I)
      ASSERT_LE(Intervals[I - 1].second, Intervals[I].first);
  }
}

TEST(PBoxTest, FrameSizeCoversEveryRow) {
  PBox Box;
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(
      {{8, 8, "a"}, {1, 1, "b"}, {4, 4, "c"}, {16, 8, "d"}}, Sig);
  std::vector<uint8_t> Blob = buildRows(Box);
  const PBoxTable &Table = Box.table(Id);
  EXPECT_EQ(Table.frameSize() % 16, 0u);
  for (uint64_t Row = 0; Row != Table.numRows(); ++Row)
    for (unsigned Slot = 0; Slot != Table.numSlots(); ++Slot)
      EXPECT_LE(Table.offsetAt(Row, Slot) + Sig.slots()[Slot].first,
                Table.frameSize());
}
