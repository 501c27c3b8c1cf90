//===- tests/core/FrameRuntimeTest.cpp - Native frame runtime tests ------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FrameRuntime.h"

#include "rng/AesCtr.h"
#include "rng/Pseudo.h"
#include "support/Fnv.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <set>

using namespace smokestack;

namespace {

FrameDescriptor makeDescriptor() {
  return FrameDescriptor({{64, 1, "buf"}, {8, 8, "len"}, {4, 4, "flag"}});
}

} // namespace

TEST(FrameRuntimeTest, SlotsAreDisjointAndInBounds) {
  FrameDescriptor Desc = makeDescriptor();
  DeterministicEntropySource Entropy(1);
  PseudoRandomSource Rng(Entropy);
  alignas(16) std::vector<char> Slab(Desc.frameSize());

  uint64_t Sizes[3] = {64, 8, 4};
  for (int Trial = 0; Trial != 100; ++Trial) {
    PermutedFrame Frame(Desc, Rng, Slab.data());
    std::vector<std::pair<uint64_t, uint64_t>> Intervals;
    for (unsigned I = 0; I != 3; ++I) {
      auto *P = static_cast<char *>(Frame.slot(I));
      ASSERT_GE(P, Slab.data());
      ASSERT_LE(P + Sizes[I], Slab.data() + Slab.size());
      Intervals.emplace_back(P - Slab.data(), P - Slab.data() + Sizes[I]);
    }
    std::sort(Intervals.begin(), Intervals.end());
    for (size_t I = 1; I != Intervals.size(); ++I)
      ASSERT_LE(Intervals[I - 1].second, Intervals[I].first);
  }
}

TEST(FrameRuntimeTest, LayoutVariesAcrossInvocations) {
  FrameDescriptor Desc = makeDescriptor();
  DeterministicEntropySource Entropy(2);
  PseudoRandomSource Rng(Entropy);
  alignas(16) std::vector<char> Slab(Desc.frameSize());

  std::set<uint64_t> BufOffsets;
  for (int Trial = 0; Trial != 64; ++Trial) {
    PermutedFrame Frame(Desc, Rng, Slab.data());
    BufOffsets.insert(static_cast<char *>(Frame.slot(0)) - Slab.data());
  }
  EXPECT_GT(BufOffsets.size(), 1u)
      << "per-invocation permutation must move the buffer around";
}

TEST(FrameRuntimeTest, RowsCoverTheTable) {
  FrameDescriptor Desc = makeDescriptor(); // 4 slots (incl. id) -> 24 -> 32
  DeterministicEntropySource Entropy(3);
  AesCtrRandomSource Rng(Entropy, 10);
  alignas(16) std::vector<char> Slab(Desc.frameSize());
  std::set<uint64_t> Rows;
  for (int Trial = 0; Trial != 2000; ++Trial) {
    PermutedFrame Frame(Desc, Rng, Slab.data());
    Rows.insert(Frame.row());
  }
  EXPECT_EQ(Rows.size(), Desc.table().numRows())
      << "a good RNG should hit every row of a 32-row table in 2000 draws";
}

TEST(FrameRuntimeTest, IdentifierCheckPassesWhenUntouched) {
  FrameDescriptor Desc = makeDescriptor();
  DeterministicEntropySource Entropy(4);
  PseudoRandomSource Rng(Entropy);
  alignas(16) std::vector<char> Slab(Desc.frameSize());
  for (int Trial = 0; Trial != 50; ++Trial) {
    PermutedFrame Frame(Desc, Rng, Slab.data());
    std::memset(Frame.slot(0), 0xAB, 64); // normal writes inside the slot
    EXPECT_TRUE(Frame.checkIdentifier());
  }
}

TEST(FrameRuntimeTest, IdentifierCheckCatchesFrameWideOverflow) {
  FrameDescriptor Desc = makeDescriptor();
  DeterministicEntropySource Entropy(5);
  PseudoRandomSource Rng(Entropy);
  alignas(16) std::vector<char> Slab(Desc.frameSize());
  PermutedFrame Frame(Desc, Rng, Slab.data());
  // A linear overflow sweeping the whole slab necessarily corrupts the
  // identifier tag wherever the permutation placed it.
  std::memset(Slab.data(), 0x41, Slab.size());
  EXPECT_FALSE(Frame.checkIdentifier());
}

TEST(FrameRuntimeTest, DistinctDescriptorsGetDistinctFunctionIds) {
  FrameDescriptor A({{8, 8, "x"}});
  FrameDescriptor B({{8, 8, "x"}});
  EXPECT_NE(A.functionId(), B.functionId());
}

TEST(FrameRuntimeTest, FrameSizeAccountsForIdentifierSlot) {
  // One 8-byte user slot + 8-byte id slot = 16 bytes minimum.
  FrameDescriptor Desc({{8, 8, "x"}});
  EXPECT_GE(Desc.frameSize(), 16u);
  EXPECT_EQ(Desc.numSlots(), 1u);
  EXPECT_EQ(Desc.table().numSlots(), 2u);
}

TEST(FrameRuntimeTest, LargeFramesSampleRowsLikeThePBox) {
  // Ten user slots plus the identifier would need 11! (~40M) exhaustive
  // rows; past MaxExhaustiveSlots the descriptor samples like the P-BOX.
  std::vector<AllocationSlot> Slots;
  for (unsigned I = 0; I != 10; ++I)
    Slots.push_back({I % 2 ? 8u : 13u + I, I % 2 ? 8u : 1u, ""});
  PBoxOptions Opts;
  FrameDescriptor Desc(Slots, Opts);
  const PBoxTable &T = Desc.table();
  ASSERT_EQ(T.numSlots(), 11u);
  EXPECT_EQ(T.numRows(), Opts.SampledRows);

  // Every row places each canonical slot at its alignment, inside the
  // frame, and overlapping no other slot.
  const std::vector<std::pair<uint64_t, uint64_t>> &Canon =
      T.signature().slots();
  for (uint64_t R = 0; R != T.numRows(); ++R) {
    std::vector<std::pair<uint64_t, uint64_t>> Spans; // [begin, end)
    for (unsigned S = 0; S != T.numSlots(); ++S) {
      auto [Size, Align] = Canon[S];
      uint64_t Off = T.offsetAt(R, S);
      ASSERT_EQ(Off % Align, 0u) << "row " << R << " slot " << S;
      ASSERT_LE(Off + Size, Desc.frameSize()) << "row " << R;
      Spans.push_back({Off, Off + Size});
    }
    std::sort(Spans.begin(), Spans.end());
    for (size_t I = 1; I != Spans.size(); ++I)
      ASSERT_LE(Spans[I - 1].second, Spans[I].first) << "row " << R;
  }
}

TEST(FrameRuntimeTest, SevenSlotFrameKeepsItsExhaustiveTable) {
  // The native attack frame of the Fig. 3 bench: seven user slots plus the
  // identifier is the largest frame that still enumerates all 8! layouts.
  // The digest pins the table bit for bit (row order included).
  FrameDescriptor Desc({{64, 1, "buf"},
                        {8, 8, "ctr"},
                        {8, 8, "op"},
                        {8, 8, "step"},
                        {8, 8, "acc"},
                        {24, 1, "f1"},
                        {4, 4, "f2"}});
  const PBoxTable &T = Desc.table();
  std::set<std::vector<uint32_t>> Distinct;
  for (uint64_t R = 0; R != T.numRows(); ++R)
    Distinct.insert({T.flat().begin() + R * T.numSlots(),
                     T.flat().begin() + (R + 1) * T.numSlots()});
  EXPECT_EQ(Distinct.size(), 40320u); // 8!
  EXPECT_EQ(T.numRows(), 65536u);     // padded to a power of two
  Fnv64 Digest;
  for (uint32_t Offset : T.flat())
    Digest.mix(Offset);
  EXPECT_EQ(Digest.value(), 0x8789bbe685b894d5ULL);
}
