//===- tests/support/ArenaTest.cpp - ByteArena tests ---------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ByteArena contract the VM's memory rests on: a fresh arena reads
/// zero everywhere, zeroTouched() returns it to that image, and a host
/// write past the end faults at once.
///
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include <gtest/gtest.h>

using namespace smokestack;

namespace {

constexpr uint64_t Cap = 4u << 20;

bool allZero(const ByteArena &A) {
  for (uint64_t I = 0; I != A.capacity(); ++I)
    if (A.data()[I] != 0)
      return false;
  return true;
}

} // namespace

TEST(ArenaTest, FreshArenaReadsZero) {
  ByteArena A(Cap);
  EXPECT_EQ(A.data()[0], 0);
  EXPECT_EQ(A.data()[Cap / 2], 0);
  EXPECT_EQ(A.data()[Cap - 1], 0);
  EXPECT_FALSE(A.touched());
}

TEST(ArenaTest, ZeroTouchedRestoresTheFreshImage) {
  ByteArena A(Cap);
  const uint64_t Spots[] = {0, 4095, 4096, Cap / 2, Cap - 1};
  for (uint64_t Off : Spots) {
    A.data()[Off] = 0xA5;
    A.noteTouched(Off, Off + 1);
  }
  EXPECT_EQ(A.touchedLo(), 0u);
  EXPECT_EQ(A.touchedHi(), Cap);
  EXPECT_EQ(A.zeroTouched(), Cap);
  EXPECT_FALSE(A.touched());
  EXPECT_TRUE(allZero(A));
}

TEST(ArenaTest, OddCapacityEndsAtItsLastByte) {
  // A capacity that is not a whole number of pages still ends flush
  // against the trailing guard, and its bytes still start zeroed.
  ByteArena A(5000);
  EXPECT_EQ(A.capacity(), 5000u);
  A.data()[4999] = 7;
  A.noteTouched(4999, 5000);
  EXPECT_EQ(A.zeroTouched(), 1u);
  EXPECT_TRUE(allZero(A));
}

TEST(ArenaDeathTest, WriteOnePastCapacityFaults) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ByteArena A(Cap);
  volatile uint8_t *End = A.data() + Cap;
  EXPECT_DEATH(*End = 1, "");
}
