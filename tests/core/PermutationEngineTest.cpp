//===- tests/core/PermutationEngineTest.cpp - Algorithm 1 tests ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PermutationEngine.h"

#include "core/PBox.h"
#include "support/Align.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <numeric>
#include <set>

using namespace smokestack;

namespace {

/// Checks a layout row is sound for \p Slots: every object aligned, all
/// objects disjoint, packed within TotalSize.
void expectSoundLayout(const LayoutRow &Row,
                       const std::vector<AllocationSlot> &Slots) {
  ASSERT_EQ(Row.Offsets.size(), Slots.size());
  std::vector<std::pair<uint64_t, uint64_t>> Intervals; // (start, end)
  for (size_t I = 0; I != Slots.size(); ++I) {
    EXPECT_TRUE(isAligned(Row.Offsets[I], Slots[I].Align))
        << "slot " << I << " offset " << Row.Offsets[I];
    Intervals.emplace_back(Row.Offsets[I], Row.Offsets[I] + Slots[I].Size);
    EXPECT_LE(Intervals.back().second, Row.TotalSize);
  }
  std::sort(Intervals.begin(), Intervals.end());
  for (size_t I = 1; I != Intervals.size(); ++I)
    EXPECT_LE(Intervals[I - 1].second, Intervals[I].first)
        << "slots overlap";
}

std::vector<AllocationSlot> mixedSlots() {
  return {{8, 8, "a"}, {1, 1, "b"}, {4, 4, "c"}, {16, 8, "d"}};
}

/// The exhaustive P_Table the product ships: every row of \p Slots'
/// unpadded PBoxTable, read back in \p Slots' own order with TotalSize
/// set to the layout's end.
std::vector<LayoutRow> tableRows(const std::vector<AllocationSlot> &Slots) {
  PBoxOptions Opts;
  Opts.PowerOfTwoRows = false;
  AllocationSignature Sig(Slots);
  PBoxTable Table(Sig, Opts, Opts.ShuffleSeed);
  std::vector<uint32_t> Storage(Table.numRows() * Table.numSlots());
  Table.fill(Storage.data());
  std::vector<LayoutRow> Rows(Table.numRows());
  for (uint64_t R = 0; R != Table.numRows(); ++R) {
    LayoutRow &Row = Rows[R];
    Row.Offsets.resize(Slots.size());
    for (size_t I = 0; I != Slots.size(); ++I) {
      Row.Offsets[I] = Table.offsetAt(R, Sig.originalToCanonical()[I]);
      Row.TotalSize = std::max(
          Row.TotalSize, Row.Offsets[I] + static_cast<uint32_t>(Slots[I].Size));
    }
  }
  return Rows;
}

} // namespace

TEST(PermutationEngineTest, IndexZeroIsDeclarationOrder) {
  std::vector<AllocationSlot> Slots = {{4, 4, "x"}, {8, 8, "y"}, {1, 1, "z"}};
  LayoutRow Row = decodePermutationLayout(0, Slots);
  // Declaration order with ALIGN padding: x@0, y@8 (aligned up from 4), z@16.
  EXPECT_EQ(Row.Offsets[0], 0u);
  EXPECT_EQ(Row.Offsets[1], 8u);
  EXPECT_EQ(Row.Offsets[2], 16u);
  EXPECT_EQ(Row.TotalSize, 17u);
}

TEST(PermutationEngineTest, LastIndexIsReverseOrder) {
  std::vector<AllocationSlot> Slots = {{4, 4, "x"}, {8, 8, "y"}, {1, 1, "z"}};
  LayoutRow Row = decodePermutationLayout(factorial(3) - 1, Slots);
  // Reverse placement: z@0, y@8, x@16.
  EXPECT_EQ(Row.Offsets[2], 0u);
  EXPECT_EQ(Row.Offsets[1], 8u);
  EXPECT_EQ(Row.Offsets[0], 16u);
}

/// Property: every permutation index yields a sound layout, and the
/// placement order matches the std::next_permutation oracle.
class AllPermutationsSoundTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllPermutationsSoundTest, SoundAndLexical) {
  unsigned N = GetParam();
  std::vector<AllocationSlot> Slots;
  // Distinct sizes so placement order is recoverable from offsets.
  for (unsigned I = 0; I != N; ++I)
    Slots.push_back({8 * (I + 1), 8, "s" + std::to_string(I)});

  std::vector<unsigned> Oracle(N);
  std::iota(Oracle.begin(), Oracle.end(), 0u);
  uint64_t Index = 0;
  do {
    LayoutRow Row = decodePermutationLayout(Index, Slots);
    expectSoundLayout(Row, Slots);
    // Recover placement order by sorting slots by offset; must equal the
    // oracle permutation.
    std::vector<unsigned> Placed(N);
    std::iota(Placed.begin(), Placed.end(), 0u);
    std::sort(Placed.begin(), Placed.end(), [&](unsigned A, unsigned B) {
      return Row.Offsets[A] < Row.Offsets[B];
    });
    ASSERT_EQ(Placed, Oracle) << "index " << Index;
    ++Index;
  } while (std::next_permutation(Oracle.begin(), Oracle.end()));
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, AllPermutationsSoundTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(PermutationEngineTest, MixedAlignmentsAllRowsSound) {
  std::vector<AllocationSlot> Slots = mixedSlots();
  std::vector<LayoutRow> Table = tableRows(Slots);
  ASSERT_EQ(Table.size(), factorial(4));
  for (const LayoutRow &Row : Table)
    expectSoundLayout(Row, Slots);
}

TEST(PermutationEngineTest, PaddingVariesAcrossPermutations) {
  // The paper notes alignment padding differs per permutation — an extra
  // entropy source. With mixed alignments, TotalSize must not be constant.
  std::vector<LayoutRow> Table = tableRows(mixedSlots());
  std::set<uint32_t> Totals;
  for (const LayoutRow &Row : Table)
    Totals.insert(Row.TotalSize);
  EXPECT_GT(Totals.size(), 1u);
}

TEST(PermutationEngineTest, OffsetsDifferBetweenPermutations) {
  std::vector<LayoutRow> Table = tableRows(mixedSlots());
  std::set<std::vector<uint32_t>> Unique;
  for (const LayoutRow &Row : Table)
    Unique.insert(Row.Offsets);
  EXPECT_EQ(Unique.size(), Table.size())
      << "distinct-size slots give every permutation a distinct offset row";
}

TEST(PermutationEngineTest, MaxFrameSizeBoundsAllRows) {
  std::vector<AllocationSlot> Slots = mixedSlots();
  uint64_t Bound = maxFrameSize(Slots);
  for (const LayoutRow &Row : tableRows(Slots))
    EXPECT_LE(Row.TotalSize, Bound);
}

TEST(PermutationEngineTest, SingleSlot) {
  std::vector<AllocationSlot> Slots = {{24, 8, "only"}};
  std::vector<LayoutRow> Table = tableRows(Slots);
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table[0].Offsets[0], 0u);
  EXPECT_EQ(Table[0].TotalSize, 24u);
}

TEST(PermutationEngineTest, TableHoldsEveryAlgorithm1Row) {
  // The flat builder enumerates with next_permutation and shuffles; as a
  // multiset its rows must be exactly Algorithm 1's N! decoded layouts.
  const std::vector<AllocationSlot> Pool = {
      {8, 8, "a"}, {1, 1, "b"}, {4, 4, "c"},  {16, 8, "d"},
      {2, 2, "e"}, {24, 8, "f"}, {3, 1, "g"}, {12, 4, "h"}};
  auto Key = [](const LayoutRow &Row) {
    return std::make_pair(Row.Offsets, Row.TotalSize);
  };
  for (size_t N = 1; N <= Pool.size(); ++N) {
    std::vector<AllocationSlot> Slots(Pool.begin(), Pool.begin() + N);
    std::multiset<std::pair<std::vector<uint32_t>, uint32_t>> Built, Decoded;
    for (const LayoutRow &Row : tableRows(Slots))
      Built.insert(Key(Row));
    for (uint64_t Index = 0; Index != factorial(N); ++Index)
      Decoded.insert(Key(decodePermutationLayout(Index, Slots)));
    EXPECT_EQ(Built, Decoded) << N << " slots";
  }
}
