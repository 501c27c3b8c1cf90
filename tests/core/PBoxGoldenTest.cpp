//===- tests/core/PBoxGoldenTest.cpp - P-BOX byte-identity goldens --------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins P-BOX table construction bit for bit. Each case records the FNV
/// digest of a table's row-major offsets (with its row count and frame
/// size) and of the blob the pass builds into the P-BOX global. The
/// goldens were recorded from the per-row construction (one LayoutRow per
/// factorial-base decode, rows shuffled as objects); any construction must
/// reproduce them, since the blob is what every Smokestack victim loads.
///
//===----------------------------------------------------------------------===//

#include "core/PBox.h"

#include "support/Fnv.h"

#include <gtest/gtest.h>

using namespace smokestack;

namespace {

/// Mixed sizes and alignments, so alignment padding differs per row.
std::vector<AllocationSlot> mixedSlots(unsigned N) {
  static const AllocationSlot Pool[] = {
      {8, 8, "a"},  {4, 4, "b"},   {1, 1, "c"},  {16, 16, "d"}, {2, 2, "e"},
      {12, 4, "f"}, {3, 1, "g"},   {32, 8, "h"}, {24, 8, "i"},  {6, 2, "j"}};
  return {Pool, Pool + N};
}

uint64_t tableDigest(const PBoxTable &T) {
  Fnv64 D;
  D.mix(T.numSlots());
  D.mix(T.numRows());
  D.mix(T.frameSize());
  for (uint32_t Offset : T.flat())
    D.mix(Offset);
  return D.value();
}

uint64_t blobDigest(const std::vector<uint8_t> &Blob,
                    const std::vector<uint64_t> &TableOffsets) {
  Fnv64 D;
  D.mix(Blob.size());
  for (uint64_t Offset : TableOffsets)
    D.mix(Offset);
  for (uint8_t Byte : Blob)
    D.mix(Byte);
  return D.value();
}

struct Golden {
  uint64_t Table;
  uint64_t Blob;
};

/// Builds one single-table P-BOX over \p Slots and digests it.
Golden digestOne(const std::vector<AllocationSlot> &Slots,
                 const PBoxOptions &Opts = PBoxOptions()) {
  PBox Box(Opts);
  AllocationSignature Sig;
  unsigned Id = Box.assignTable(Slots, Sig);
  std::vector<uint64_t> TableOffsets;
  std::vector<uint8_t> Blob = Box.build(TableOffsets);
  return {tableDigest(Box.table(Id)), blobDigest(Blob, TableOffsets)};
}

void expectGolden(const Golden &Got, const Golden &Want) {
  EXPECT_EQ(Got.Table, Want.Table)
      << std::hex << "table digest 0x" << Got.Table;
  EXPECT_EQ(Got.Blob, Want.Blob) << std::hex << "blob digest 0x" << Got.Blob;
}

} // namespace

TEST(PBoxGoldenTest, ExhaustiveTablesOneToEightSlots) {
  const Golden Want[] = {
      {0x1db2634e99502395ULL, 0x7cb6e9eccc3af3e1ULL},
      {0xd4eb824bdfb8e4d5ULL, 0x33f9ab888db45675ULL},
      {0xb45740900c9bf3d2ULL, 0xd5ed99a127ecea99ULL},
      {0xc375c217f3abf315ULL, 0xec403e726c0e81ebULL},
      {0x4f1a42eaf1abbc1aULL, 0x5fde8ab87a64812dULL},
      {0xe7db68787fa5145fULL, 0x328b4247ca434d35ULL},
      {0xc0b1ad36530acc0cULL, 0x9cf25711d72eaac0ULL},
      {0x2b230d2b2025b895ULL, 0xd6b78ca623644314ULL},
  };
  for (unsigned N = 1; N <= 8; ++N) {
    SCOPED_TRACE(N);
    expectGolden(digestOne(mixedSlots(N)), Want[N - 1]);
  }
}

TEST(PBoxGoldenTest, SampledTablesNineAndTenSlots) {
  const Golden Want[] = {
      {0xa58e1cc984ca026eULL, 0x94cd11a6985ed7d5ULL},
      {0xea2d03e6a5c9b1efULL, 0x104b26750078a277ULL},
  };
  for (unsigned N = 9; N <= 10; ++N) {
    SCOPED_TRACE(N);
    expectGolden(digestOne(mixedSlots(N)), Want[N - 9]);
  }
}

TEST(PBoxGoldenTest, FactorialRowsWithoutPowerOfTwoPadding) {
  PBoxOptions Opts;
  Opts.PowerOfTwoRows = false;
  const Golden Want[] = {
      {0x4d55339c3e526ec0ULL, 0x612eb3e7d713efadULL},
      {0xfd2aee2346f88158ULL, 0x47a67425f5938972ULL},
      {0x518ad7e7ef63bdb7ULL, 0xfef5096acc84f05aULL},
  };
  const unsigned Sizes[] = {3, 5, 7};
  for (unsigned I = 0; I != 3; ++I) {
    SCOPED_TRACE(Sizes[I]);
    expectGolden(digestOne(mixedSlots(Sizes[I]), Opts), Want[I]);
  }
}

TEST(PBoxGoldenTest, MultiTableBlobs) {
  // Reordered, shared, round-up-shared and distinct frames in one P-BOX;
  // without multiset sharing the reordered frames get tables of their own.
  const std::vector<std::vector<AllocationSlot>> Frames = {
      {{4, 4, "i"}, {8, 8, "d"}},
      {{8, 8, "d"}, {4, 4, "i"}},
      {{8, 8, "d"}, {4, 4, "i"}, {8, 8, "p"}},
      mixedSlots(5),
      {{1, 1, "c"}, {16, 16, "v"}, {8, 8, "a"}, {4, 4, "b"}, {12, 4, "f"}},
      mixedSlots(6),
  };
  const uint64_t Want[] = {0x7b1920e3c73084e0ULL, 0xe90943cd36a25e80ULL};
  for (bool Share : {true, false}) {
    SCOPED_TRACE(Share);
    PBoxOptions Opts;
    Opts.ShareByMultiset = Share;
    PBox Box(Opts);
    Fnv64 Tables;
    for (const std::vector<AllocationSlot> &Slots : Frames) {
      AllocationSignature Sig;
      Tables.mix(Box.assignTable(Slots, Sig));
    }
    std::vector<uint64_t> TableOffsets;
    std::vector<uint8_t> Blob = Box.build(TableOffsets);
    for (unsigned Id = 0; Id != Box.numTables(); ++Id)
      Tables.mix(tableDigest(Box.table(Id)));
    Fnv64 D;
    D.mix(Tables.value());
    D.mix(blobDigest(Blob, TableOffsets));
    EXPECT_EQ(D.value(), Want[Share ? 0 : 1])
        << std::hex << "digest 0x" << D.value();
  }
}
