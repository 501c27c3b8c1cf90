//===- tests/vm/EngineTest.cpp - Engine name table tests -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Engine.h"

#include "jit/JitAbi.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace smokestack;

TEST(EngineTest, EveryNameRoundTrips) {
  for (VmEngine E : {VmEngine::Jit, VmEngine::Decoded, VmEngine::TreeWalk}) {
    VmEngine Parsed = E == VmEngine::Jit ? VmEngine::Decoded : VmEngine::Jit;
    ASSERT_TRUE(parseEngine(engineName(E), Parsed)) << engineName(E);
    EXPECT_EQ(Parsed, E);
  }
  EXPECT_STREQ(engineName(VmEngine::Jit), "jit");
  EXPECT_STREQ(engineName(VmEngine::Decoded), "decoded");
  EXPECT_STREQ(engineName(VmEngine::TreeWalk), "treewalk");
  EXPECT_STREQ(VmEngineChoices, "jit|decoded|treewalk");
}

TEST(EngineTest, UnknownNamesAreRejected) {
  VmEngine E = VmEngine::TreeWalk;
  for (const char *Name : {"", "all", "JIT", "tree-walk", "decoded ", "x"})
    EXPECT_FALSE(parseEngine(Name, E)) << "'" << Name << "'";
  EXPECT_EQ(E, VmEngine::TreeWalk);
}

TEST(EngineTest, SetEngineDrivesTheInterpreterFlags) {
  InterpreterOptions O;
  setEngine(O, VmEngine::TreeWalk);
  EXPECT_FALSE(O.UseDecodedEngine);
  EXPECT_FALSE(O.UseJit);
  setEngine(O, VmEngine::Jit);
  EXPECT_TRUE(O.UseDecodedEngine);
  EXPECT_TRUE(O.UseJit);
  setEngine(O, VmEngine::Decoded);
  EXPECT_TRUE(O.UseDecodedEngine);
  EXPECT_FALSE(O.UseJit);
}

TEST(EngineTest, OnlyAnUnavailableJitFallsBack) {
  EXPECT_EQ(availableEngine(VmEngine::Decoded), VmEngine::Decoded);
  EXPECT_EQ(availableEngine(VmEngine::TreeWalk), VmEngine::TreeWalk);
  EXPECT_EQ(availableEngine(VmEngine::Jit),
            jitAvailable() ? VmEngine::Jit : VmEngine::Decoded);
}
