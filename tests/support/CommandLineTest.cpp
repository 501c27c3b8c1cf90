//===- tests/support/CommandLineTest.cpp - Strict flag parsing tests -----===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <gtest/gtest.h>

using namespace smokestack;

TEST(CommandLineTest, FlagValueMatchesOnlyItsPrefix) {
  EXPECT_STREQ(flagValue("-workers=4", "-workers="), "4");
  EXPECT_STREQ(flagValue("-workers=", "-workers="), "");
  EXPECT_EQ(flagValue("-worker=4", "-workers="), nullptr);
  EXPECT_EQ(flagValue("-workers", "-workers="), nullptr);
}

TEST(CommandLineTest, U64AcceptRejectTable) {
  struct Case {
    const char *Text;
    bool Ok;
    uint64_t Value;
  } Cases[] = {
      {"0", true, 0},
      {"10000", true, 10000},
      {"0x10", true, 16},
      {"0X7fffffffffffffff", true, 0x7fffffffffffffffULL},
      {"010", true, 8}, // 0-octal, as strtoull reads it
      {"18446744073709551615", true, ~0ULL},
      {"18446744073709551616", false, 0}, // 2^64 overflows
      {"", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 1", false, 0},
      {"10k", false, 0},
      {"1e9", false, 0},
      {"abc", false, 0},
      {"0x", false, 0},
      {"7 ", false, 0},
  };
  for (const Case &C : Cases) {
    uint64_t V = 12345;
    EXPECT_EQ(parseU64(C.Text, V), C.Ok) << "'" << C.Text << "'";
    EXPECT_EQ(V, C.Ok ? C.Value : 12345u) << "'" << C.Text << "'";
  }
}

TEST(CommandLineTest, UnsignedRejectsWhatDoesNotFit) {
  unsigned V = 7;
  EXPECT_TRUE(parseUnsigned("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
  EXPECT_FALSE(parseUnsigned("4294967296", V));
  EXPECT_FALSE(parseUnsigned("-1", V));
  EXPECT_FALSE(parseUnsigned("abc", V));
  EXPECT_EQ(V, 4294967295u);
}

TEST(CommandLineTest, RateAcceptRejectTable) {
  struct Case {
    const char *Text;
    bool Ok;
    double Value;
  } Cases[] = {
      {"0", true, 0.0},     {"1", true, 1.0},       {"0.08", true, 0.08},
      {".5", true, 0.5},    {"1.0", true, 1.0},     {"2e-1", true, 0.2},
      {"", false, 0},       {"-0.5", false, 0},     {"+0.5", false, 0},
      {"1.5", false, 0},    {"1.0000001", false, 0}, {"0.2x", false, 0},
      {"abc", false, 0},    {".", false, 0},        {"nan", false, 0},
      {"inf", false, 0},
  };
  for (const Case &C : Cases) {
    double V = -1.0;
    EXPECT_EQ(parseRate(C.Text, V), C.Ok) << "'" << C.Text << "'";
    EXPECT_EQ(V, C.Ok ? C.Value : -1.0) << "'" << C.Text << "'";
  }
}
