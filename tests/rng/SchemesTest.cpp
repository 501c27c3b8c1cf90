//===- tests/rng/SchemesTest.cpp - RNG scheme table tests ----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "rng/Schemes.h"

#include "rng/Entropy.h"

#include <gtest/gtest.h>

#include <string>

using namespace smokestack;

TEST(SchemesTest, TheFourSchemesInThePapersOrder) {
  const char *Names[] = {"pseudo", "aes1", "aes10", "rdrand"};
  const char *Labels[] = {"pseudo", "AES-1", "AES-10", "RDRAND"};
  ASSERT_EQ(std::size(RngSchemes), 4u);
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_STREQ(RngSchemes[I].Name, Names[I]);
    EXPECT_STREQ(RngSchemes[I].Label, Labels[I]);
  }
}

TEST(SchemesTest, EveryNameRoundTripsToASourceWithItsLabel) {
  DeterministicEntropySource Entropy(3);
  for (const RngScheme &S : RngSchemes) {
    EXPECT_EQ(findRngScheme(S.Name), &S) << S.Name;
    std::unique_ptr<RandomSource> Source = S.Make(Entropy);
    ASSERT_TRUE(Source) << S.Name;
    EXPECT_STREQ(Source->name(), S.Label);
  }
}

TEST(SchemesTest, UnknownNamesAreRejected) {
  for (const char *Name : {"", "AES-10", "aes", "aes100", "RDRAND", "x"})
    EXPECT_EQ(findRngScheme(Name), nullptr) << "'" << Name << "'";
}
