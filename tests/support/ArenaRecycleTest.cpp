//===- tests/support/ArenaRecycleTest.cpp - Recycled arena mappings -------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A destroyed ByteArena parks its mapping on a per-thread free list and
/// the next arena of the same capacity reuses it (support/Arena.h). These
/// tests pin the contract down: a VM built on a recycled mapping reads zero
/// over the full capacity of all three arenas after a predecessor dirtied
/// them below and above the in-place zeroing limit, on the decoded and the
/// JIT engine; the second VM on a thread maps nothing new; the trailing
/// guard still faults; the free list stays bounded and is unmapped at
/// thread exit, also across WorkerPool worker churn; and threads recycle
/// concurrently without sharing a list.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "runtime/WorkerPool.h"
#include "support/Arena.h"
#include "support/Statistics.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace smokestack;

namespace {

uint64_t counter(const char *Name) {
  Statistic *S = findStatistic(Name);
  EXPECT_NE(S, nullptr) << Name;
  return S ? S->value() : 0;
}

/// main(): stores a nonzero pattern over \p Size bytes of a writable
/// global, of a heap block and of a stack array, 8 bytes per store, and
/// returns the number of stores.
void buildDirtier(Module &M, uint64_t Size) {
  IRBuilder B(M);
  Type *Bytes = B.getContext().getArrayTy(B.i8(), Size);
  GlobalVariable *G = M.createGlobal("g", Bytes);
  Function *Malloc = M.getOrInsertDeclaration("malloc", B.ptr(), {B.i64()});
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Done = F->createBlock("done");
  B.setInsertPoint(Entry);
  AllocaInst *Idx = B.alloca_(B.i64(), "i");
  AllocaInst *Local = B.alloca_(Bytes, "local");
  Value *Heap = B.call(Malloc, {B.constI64(Size)});
  B.store(B.constI64(0), Idx);
  B.br(Loop);
  B.setInsertPoint(Loop);
  Value *I = B.load(B.i64(), Idx);
  Value *Pattern = B.constI64(0xA5A5A5A5A5A5A5A5ULL);
  B.store(Pattern, B.gep(G, I, 8));
  B.store(Pattern, B.gep(Heap, I, 8));
  B.store(Pattern, B.gep(Local, I, 8));
  Value *Next = B.add(I, B.constI64(1));
  B.store(Next, Idx);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, Next, B.constI64(Size / 8)),
           Loop, Done);
  B.setInsertPoint(Done);
  B.ret(B.load(B.i64(), Idx));
}

/// True if every byte of [Base, Base + Size) reads zero through \p Mem.
bool segmentReadsZero(SimMemory &Mem, uint64_t Base, uint64_t Size) {
  std::vector<uint8_t> Chunk(64u << 10);
  for (uint64_t Off = 0; Off < Size; Off += Chunk.size()) {
    uint64_t N = std::min<uint64_t>(Chunk.size(), Size - Off);
    if (!Mem.read(Base + Off, Chunk.data(), N))
      return false;
    if (std::any_of(Chunk.begin(), Chunk.begin() + N,
                    [](uint8_t B) { return B != 0; }))
      return false;
  }
  return true;
}

/// Runs \p Body on a new thread, whose free list starts empty and is
/// unmapped when the thread exits.
template <typename Fn> void onFreshThread(Fn Body) {
  std::thread T(Body);
  T.join();
}

/// The [start, end) ranges of the process's readable-writable mappings.
std::vector<std::pair<uintptr_t, uintptr_t>> writableMappings() {
  std::vector<std::pair<uintptr_t, uintptr_t>> Out;
  std::ifstream Maps("/proc/self/maps");
  std::string Line;
  while (std::getline(Maps, Line)) {
    unsigned long Lo = 0, Hi = 0;
    char Perms[5] = {};
    if (std::sscanf(Line.c_str(), "%lx-%lx %4s", &Lo, &Hi, Perms) == 3 &&
        Perms[0] == 'r' && Perms[1] == 'w')
      Out.emplace_back(Lo, Hi);
  }
  return Out;
}

/// True if some writable mapping is exactly [Data, Data + Size).
bool isMapped(const std::vector<std::pair<uintptr_t, uintptr_t>> &Maps,
              const uint8_t *Data, uint64_t Size) {
  auto Lo = reinterpret_cast<uintptr_t>(Data);
  return std::find(Maps.begin(), Maps.end(),
                   std::make_pair(Lo, Lo + Size)) != Maps.end();
}

enum class Engine { Decoded, Jit };

struct RecycleCase {
  Engine Eng;
  uint64_t DirtyBytes;
};

class ArenaRecycleVmTest : public ::testing::TestWithParam<RecycleCase> {};

} // namespace

TEST_P(ArenaRecycleVmTest, RecycledVmReadsZeroOverFullCapacity) {
  const RecycleCase &C = GetParam();
  if (C.Eng == Engine::Jit && !jitAvailable())
    GTEST_SKIP() << "JIT unavailable on this host";
  Module M("dirtier");
  buildDirtier(M, C.DirtyBytes);
  InterpreterOptions Opts;
  Opts.UseJit = C.Eng == Engine::Jit;
  Opts.JitThreshold = 0;

  onFreshThread([&] {
    uint8_t *OldStack = nullptr;
    uint64_t Released = counter("arena.madvise-bytes");
    {
      Interpreter VM(M, nullptr, Opts);
      ExecResult R = VM.run("main");
      ASSERT_TRUE(R.ok()) << R.Message;
      EXPECT_EQ(R.ReturnValue, C.DirtyBytes / 8);
      if (C.Eng == Engine::Jit) {
        EXPECT_GT(VM.jitCompiledFunctions(), 0u);
      }
      OldStack = VM.memory().jitStackView().Host;
    }
    EXPECT_EQ(ByteArena::cachedMappings(), 3u);
    uint64_t Delta = counter("arena.madvise-bytes") - Released;
    if (C.DirtyBytes > ByteArena::ZeroInPlaceLimit) {
      EXPECT_GE(Delta, 3 * C.DirtyBytes);
    } else {
      EXPECT_EQ(Delta, 0u);
    }

    Interpreter Next(M, nullptr, Opts);
    SimMemory &Mem = Next.memory();
    EXPECT_EQ(Mem.jitStackView().Host, OldStack) << "stack not recycled";
    EXPECT_EQ(ByteArena::cachedMappings(), 0u);
    EXPECT_TRUE(segmentReadsZero(Mem, MemoryMap::GlobalsBase,
                                 MemoryMap::GlobalsSize));
    EXPECT_TRUE(segmentReadsZero(Mem, MemoryMap::HeapBase, MemoryMap::HeapSize));
    EXPECT_TRUE(
        segmentReadsZero(Mem, MemoryMap::StackBase, MemoryMap::StackSize));
    EXPECT_EQ(Mem.heapBytesUsed(), 0u);
    EXPECT_EQ(Mem.heapHighWater(), 0u);
    // And the recycled VM runs exactly like the first one.
    ExecResult R = Next.run("main");
    ASSERT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ReturnValue, C.DirtyBytes / 8);
  });
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndDirtySizes, ArenaRecycleVmTest,
    ::testing::Values(RecycleCase{Engine::Decoded, 16u << 10},
                      RecycleCase{Engine::Decoded, 256u << 10},
                      RecycleCase{Engine::Jit, 16u << 10},
                      RecycleCase{Engine::Jit, 256u << 10}),
    [](const ::testing::TestParamInfo<RecycleCase> &Info) {
      return std::string(Info.param.Eng == Engine::Jit ? "Jit" : "Decoded") +
             (Info.param.DirtyBytes > ByteArena::ZeroInPlaceLimit
                  ? "_AboveInPlaceLimit"
                  : "_BelowInPlaceLimit");
    });

TEST(ArenaRecycleTest, SecondVmOnAThreadMapsNothingNew) {
  Module M("dirtier");
  buildDirtier(M, 4096);
  onFreshThread([&] {
    uint64_t Mapped = counter("arena.mapped");
    uint64_t Recycled = counter("arena.recycled");
    { Interpreter(M).run("main"); }
    EXPECT_EQ(counter("arena.mapped"), Mapped + 3);
    { Interpreter(M).run("main"); }
    EXPECT_EQ(counter("arena.mapped"), Mapped + 3);
    EXPECT_EQ(counter("arena.recycled"), Recycled + 3);
  });
}

TEST(ArenaRecycleTest, FreeListIsBoundedAndUnmappedAtThreadExit) {
  const uint64_t Cap = 3u << 20;
  const unsigned Made = ByteArena::MaxCachedMappings + 2;
  std::vector<uint8_t *> Data;
  onFreshThread([&] {
    {
      std::vector<std::unique_ptr<ByteArena>> Live;
      for (unsigned I = 0; I != Made; ++I) {
        Live.push_back(std::make_unique<ByteArena>(Cap));
        Live.back()->data()[I] = 1;
        Live.back()->noteTouched(I, I + 1);
        Data.push_back(Live.back()->data());
      }
      for (std::unique_ptr<ByteArena> &A : Live)
        A.reset();
    }
    // Destroyed in order, so the two oldest were unmapped to make room.
    EXPECT_EQ(ByteArena::cachedMappings(), ByteArena::MaxCachedMappings);
    auto Maps = writableMappings();
    for (unsigned I = 0; I != Made; ++I)
      EXPECT_EQ(isMapped(Maps, Data[I], Cap),
                I >= Made - ByteArena::MaxCachedMappings)
          << "arena " << I;
  });
  auto Maps = writableMappings();
  for (unsigned I = 0; I != Made; ++I)
    EXPECT_FALSE(isMapped(Maps, Data[I], Cap)) << "arena " << I;
}

TEST(ArenaRecycleTest, NoMappingLeaksAcrossWorkerPoolChurn) {
  // Every heap segment body is a writable mapping of exactly HeapSize
  // bytes; after a churning pool and the threads it ran on are gone, the
  // process holds as many as before.
  auto HeapBodies = [] {
    auto Maps = writableMappings();
    return std::count_if(Maps.begin(), Maps.end(), [](const auto &R) {
      return R.second - R.first == MemoryMap::HeapSize;
    });
  };
  Module M("dirtier");
  buildDirtier(M, 4096);
  auto Before = HeapBodies();
  uint64_t Mapped = counter("arena.mapped");
  uint64_t Rebuilds = counter("pool.full-rebuilds");
  onFreshThread([&] {
    PoolOptions Opts;
    Opts.Workers = 3;
    Opts.SnapshotRestore = false; // every crash and death rebuilds the VM
    Opts.scriptWorkerChaos(0.2, 0.05);
    WorkerPool Pool(M, Opts);
    Pool.start();
    for (uint64_t I = 0; I != 200; ++I)
      Pool.submit({I, {}});
    Pool.finish();
    EXPECT_GT(counter("pool.full-rebuilds"), Rebuilds);
  });
  EXPECT_GT(counter("arena.mapped"), Mapped);
  EXPECT_EQ(HeapBodies(), Before);
}

TEST(ArenaRecycleTest, ThreadsRecycleConcurrently) {
  // Each thread maps one VM's arenas once and recycles them from then on:
  // free lists are per thread, so no thread takes another's mapping.
  const unsigned Threads = 4, Rounds = 20;
  uint64_t Mapped = counter("arena.mapped");
  uint64_t Recycled = counter("arena.recycled");
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([T] {
      Module M("dirtier");
      buildDirtier(M, 4096 << (T % 2));
      for (unsigned R = 0; R != Rounds; ++R) {
        Interpreter VM(M);
        ExecResult Result = VM.run("main");
        EXPECT_TRUE(Result.ok()) << Result.Message;
        EXPECT_EQ(Result.ReturnValue, (4096u << (T % 2)) / 8);
      }
      EXPECT_EQ(ByteArena::cachedMappings(), 3u);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(counter("arena.mapped") - Mapped, Threads * 3);
  EXPECT_EQ(counter("arena.recycled") - Recycled, Threads * (Rounds - 1) * 3);
}

TEST(ArenaDeathTest, WriteOnePastCapacityFaultsOnARecycledArena) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const uint64_t Cap = 4u << 20;
  uint8_t *First = nullptr;
  {
    ByteArena A(Cap);
    First = A.data();
    A.data()[Cap - 1] = 1;
    A.noteTouched(Cap - 1, Cap);
  }
  ByteArena B(Cap);
  ASSERT_EQ(B.data(), First) << "arena not recycled";
  EXPECT_EQ(B.data()[Cap - 1], 0);
  volatile uint8_t *End = B.data() + Cap;
  EXPECT_DEATH(*End = 1, "");
}

#if defined(__SANITIZE_ADDRESS__)
#define SMOKESTACK_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMOKESTACK_TEST_ASAN 1
#endif
#endif

#ifdef SMOKESTACK_TEST_ASAN
TEST(ArenaDeathTest, UseAfterDestroyIsReportedUnderAsan) {
  // A parked mapping stays mapped, so only its ASan poisoning catches a
  // stale pointer into a destroyed VM's memory.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Module M("dirtier");
  buildDirtier(M, 4096);
  volatile uint8_t *Stale = nullptr;
  {
    Interpreter VM(M);
    ASSERT_TRUE(VM.run("main").ok());
    SimMemory::JitStackView Stack = VM.memory().jitStackView();
    Stale = Stack.Host + *Stack.TouchedLo;
  }
  EXPECT_DEATH((void)*Stale, "use-after-poison");
}
#endif
