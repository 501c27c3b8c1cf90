//===- tests/vm/ReadOnlyMappingTest.cpp - In-place rodata mapping ---------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Read-only globals — the P-BOX above all — are mapped into a VM's rodata
// segment in place: the VM reads the Module's initializer bytes, never a
// copy (vm/SimMemory.h). These tests pin the mapping down: every P-BOX byte
// a VM reads is the initializer's byte, at the initializer's own host
// address; alignment gaps, zero-fill tails and the rest of the segment read
// zero; every write traps; and a VM restored from a snapshot another VM
// captured — the WorkerPool's shared snapshot — reads the same host bytes,
// as does every pool worker under crash-rebuild chaos.
//
//===----------------------------------------------------------------------===//

#include "core/SmokestackPass.h"
#include "ir/IRBuilder.h"
#include "rng/Entropy.h"
#include "rng/Pseudo.h"
#include "runtime/WorkerPool.h"
#include "vm/Interpreter.h"
#include "vm/Snapshot.h"

#include "gtest/gtest.h"

#include <string>

using namespace smokestack;

namespace {

/// victim(): a frame of \p NumLocals mixed-alignment locals, each stored
/// and summed back. Under Smokestack its prologue reads one P-BOX row.
void buildVictim(Module &M, unsigned NumLocals) {
  IRBuilder B(M);
  Function *F = M.createFunction("victim", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  std::vector<AllocaInst *> Locals;
  for (unsigned I = 0; I != NumLocals; ++I) {
    Type *Ty = I % 3 == 0   ? B.i64()
               : I % 3 == 1 ? B.i32()
                            : B.getContext().getArrayTy(B.i8(), 3 + I);
    Locals.push_back(B.alloca_(Ty, "v" + std::to_string(I)));
  }
  Value *Sum = B.constI64(0);
  for (unsigned I = 0; I != NumLocals; ++I) {
    B.store(B.constI8(I + 1), Locals[I]);
    Sum = B.add(Sum, B.zext(B.i64(), B.load(B.i8(), Locals[I])));
  }
  B.ret(Sum);
}

/// Hardens \p M with Smokestack (emitting its P-BOX) and returns the P-BOX
/// global.
GlobalVariable *harden(Module &M) {
  SmokestackPass Pass;
  EXPECT_TRUE(Pass.runOnModule(M));
  return M.getGlobal(PBoxGlobalName);
}

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// Host-side FNV-1a over \p Init followed by zeroes up to \p Bytes — what
/// a VM must read from a region mapped at the segment start.
uint64_t hostHash(const std::vector<uint8_t> &Init, uint64_t Bytes) {
  uint64_t H = FnvOffset;
  for (uint64_t I = 0; I != Bytes; ++I)
    H = (H ^ (I < Init.size() ? Init[I] : 0)) * FnvPrime;
  return H;
}

/// driver(): runs victim() (so a Smokestack prologue reads a P-BOX row),
/// then FNV-1a-hashes \p Bytes bytes from the P-BOX's first byte on, one
/// i8 load at a time. Added after hardening, so it is not instrumented.
void buildHashDriver(Module &M, GlobalVariable *PBox, uint64_t Bytes) {
  IRBuilder B(M);
  Function *Victim = M.getFunction("victim");
  Function *F = M.createFunction("driver", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Done = F->createBlock("done");
  B.setInsertPoint(Entry);
  AllocaInst *Idx = B.alloca_(B.i64(), "i");
  AllocaInst *Hash = B.alloca_(B.i64(), "h");
  B.call(Victim, {});
  B.store(B.constI64(0), Idx);
  B.store(B.constI64(FnvOffset), Hash);
  B.br(Loop);
  B.setInsertPoint(Loop);
  Value *I = B.load(B.i64(), Idx);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, I, B.constI64(Bytes)), Body,
           Done);
  B.setInsertPoint(Body);
  Value *Byte = B.zext(B.i64(), B.load(B.i8(), B.gep(PBox, I, 1)));
  Value *H = B.mul(B.xor_(B.load(B.i64(), Hash), Byte), B.constI64(FnvPrime));
  B.store(H, Hash);
  B.store(B.add(I, B.constI64(1)), Idx);
  B.br(Loop);
  B.setInsertPoint(Done);
  B.ret(B.load(B.i64(), Hash));
}

/// Reads every byte of \p Init back through \p Mem at \p Addr, one byte at
/// a time and in one bulk read.
void expectReadsInitializer(SimMemory &Mem, uint64_t Addr,
                            const std::vector<uint8_t> &Init) {
  for (uint64_t I = 0; I != Init.size(); ++I) {
    uint8_t Byte = ~Init[I];
    ASSERT_TRUE(Mem.read(Addr + I, &Byte, 1)) << "byte " << I;
    ASSERT_EQ(Byte, Init[I]) << "byte " << I;
  }
  std::vector<uint8_t> Bulk(Init.size());
  ASSERT_TRUE(Mem.read(Addr, Bulk.data(), Bulk.size()));
  EXPECT_TRUE(Bulk == Init);
}

/// Every 1/2/4/8-byte write at \p Addr must trap ReadOnlyViolation.
void expectWritesTrap(SimMemory &Mem, uint64_t Addr) {
  const uint64_t Junk = 0xA5A5A5A5A5A5A5A5ULL;
  for (uint64_t Size : {1, 2, 4, 8}) {
    EXPECT_FALSE(Mem.write(Addr, &Junk, Size)) << std::hex << Addr;
    EXPECT_EQ(Mem.getTrap(), TrapKind::ReadOnlyViolation) << std::hex << Addr;
    Mem.clearTrap();
  }
}

} // namespace

TEST(ReadOnlyMappingTest, PBoxReadsAreTheInitializerInPlace) {
  // Seven locals plus the identifier slot: an 8-slot, 2 MiB P-BOX.
  Module M("rodata");
  buildVictim(M, 7);
  GlobalVariable *PBox = harden(M);
  ASSERT_NE(PBox, nullptr);
  const std::vector<uint8_t> &Init = PBox->getInitializer();
  ASSERT_GE(Init.size(), 1u << 20);

  DeterministicEntropySource Entropy(1);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);
  ASSERT_TRUE(VM.run("victim").ok());

  // One region, aliasing the initializer: the VM reads the very bytes the
  // pass wrote.
  uint64_t Addr = VM.getGlobalAddress(PBoxGlobalName);
  const std::vector<ReadOnlyRegion> &Map = VM.memory().readOnlyRegions();
  ASSERT_EQ(Map.size(), 1u);
  EXPECT_EQ(Map[0].Offset, Addr - MemoryMap::RODataBase);
  EXPECT_EQ(Map[0].Host, Init.data());
  EXPECT_EQ(Map[0].Size, Init.size());
  expectReadsInitializer(VM.memory(), Addr, Init);

  // Past the last initializer, up to the segment end, everything reads 0.
  uint64_t Tail[4] = {1, 1, 1, 1};
  ASSERT_TRUE(VM.memory().read(Addr + Init.size(), Tail, sizeof(Tail)));
  for (uint64_t Word : Tail)
    EXPECT_EQ(Word, 0u);
  uint64_t Last = 1;
  ASSERT_TRUE(VM.memory().read(
      MemoryMap::RODataBase + MemoryMap::RODataSize - 8, &Last, 8));
  EXPECT_EQ(Last, 0u);
}

TEST(ReadOnlyMappingTest, GapsAndTailsReadZero) {
  Module M("gaps");
  IRBuilder B(M);
  Type *I8x3 = B.getContext().getArrayTy(B.i8(), 3);
  Type *I8x16 = B.getContext().getArrayTy(B.i8(), 16);
  M.createGlobal("a", I8x3, {1, 2, 3}, /*ReadOnly=*/true);
  M.createGlobal("rw", B.i64(), {9}, /*ReadOnly=*/false);
  M.createGlobal("b", B.i64(), {0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18},
                 /*ReadOnly=*/true);
  M.createGlobal("c", I8x16, {0x21, 0x22, 0x23, 0x24}, /*ReadOnly=*/true);
  M.createGlobal("empty", I8x16, {}, /*ReadOnly=*/true);
  Interpreter VM(M);
  ASSERT_TRUE(VM.captureSnapshot().ReadOnly.size() == 3u)
      << "an empty initializer maps nothing";

  // a@0..3, alignment gap 3..8, b@8..16, c@16..20 then its zero-fill tail
  // to 32, "empty" 32..48, and zeroes on to the segment end.
  const uint64_t Base = MemoryMap::RODataBase;
  ASSERT_EQ(VM.getGlobalAddress("a"), Base);
  ASSERT_EQ(VM.getGlobalAddress("b"), Base + 8);
  ASSERT_EQ(VM.getGlobalAddress("c"), Base + 16);
  std::vector<uint8_t> Want(64, 0);
  for (uint8_t I = 0; I != 3; ++I)
    Want[I] = 1 + I;
  for (uint8_t I = 0; I != 8; ++I)
    Want[8 + I] = 0x11 + I;
  for (uint8_t I = 0; I != 4; ++I)
    Want[16 + I] = 0x21 + I;

  SimMemory &Mem = VM.memory();
  std::vector<uint8_t> Got(Want.size(), 0xFF);
  ASSERT_TRUE(Mem.read(Base, Got.data(), Got.size()));
  EXPECT_EQ(Got, Want);
  // Every unaligned window of every width agrees with the flat image.
  for (uint64_t Size : {1, 2, 4, 8})
    for (uint64_t Off = 0; Off + Size <= Want.size(); ++Off) {
      uint64_t Value = ~0ULL;
      ASSERT_TRUE(Mem.loadInt(Base + Off, Size, Value));
      uint64_t Expect = 0;
      for (uint64_t K = 0; K != Size; ++K)
        Expect |= uint64_t(Want[Off + K]) << (8 * K);
      EXPECT_EQ(Value, Expect) << "offset " << Off << " size " << Size;
    }

  // Reaching past the segment end is unmapped, not zero.
  uint64_t Word = 0;
  EXPECT_FALSE(Mem.read(Base + MemoryMap::RODataSize - 4, &Word, 8));
  EXPECT_EQ(Mem.getTrap(), TrapKind::UnmappedAccess);
  Mem.clearTrap();
}

TEST(ReadOnlyMappingTest, EveryRodataWriteTraps) {
  Module M("writes");
  buildVictim(M, 4);
  GlobalVariable *PBox = harden(M);
  ASSERT_NE(PBox, nullptr);
  const std::vector<uint8_t> Before = PBox->getInitializer();
  // scribble(): an IR store into the P-BOX, the write an attacker would
  // need to pin a layout.
  {
    IRBuilder B(M);
    Function *F = M.createFunction("scribble", B.i64(), {});
    B.setInsertPoint(F->createBlock("entry"));
    B.store(B.constI64(0), PBox);
    B.ret(B.constI64(0));
  }

  DeterministicEntropySource Entropy(2);
  PseudoRandomSource Rng(Entropy);
  Interpreter VM(M, &Rng);
  ExecResult R = VM.run("scribble");
  EXPECT_EQ(R.Trap, TrapKind::ReadOnlyViolation) << R.Message;

  SimMemory &Mem = VM.memory();
  Mem.clearTrap();
  uint64_t Addr = VM.getGlobalAddress(PBoxGlobalName);
  // Inside the P-BOX, at its last byte, past it, and at the segment end.
  for (uint64_t At : {Addr, Addr + 5, Addr + Before.size() - 1,
                      Addr + Before.size() + 64,
                      MemoryMap::RODataBase + MemoryMap::RODataSize - 8})
    expectWritesTrap(Mem, At);
  // Straddling the segment end faults as unmapped.
  const uint64_t Junk = 0;
  EXPECT_FALSE(
      Mem.write(MemoryMap::RODataBase + MemoryMap::RODataSize - 4, &Junk, 8));
  EXPECT_EQ(Mem.getTrap(), TrapKind::UnmappedAccess);
  Mem.clearTrap();

  EXPECT_TRUE(PBox->getInitializer() == Before) << "the module's bytes moved";
  expectReadsInitializer(Mem, Addr, Before);
}

TEST(ReadOnlyMappingTest, ForeignSnapshotMapsTheSameHostBytes) {
  Module M("foreign");
  buildVictim(M, 7);
  GlobalVariable *PBox = harden(M);
  ASSERT_NE(PBox, nullptr);
  const std::vector<uint8_t> &Init = PBox->getInitializer();

  DeterministicEntropySource EntropyA(3), EntropyB(4);
  PseudoRandomSource RngA(EntropyA), RngB(EntropyB);
  Interpreter Capturer(M, &RngA);
  VmSnapshot S = Capturer.captureSnapshot();
  // The snapshot carries the map, not the multi-MiB P-BOX.
  EXPECT_LT(S.imageBytes(), Init.size() / 64);
  ASSERT_EQ(S.ReadOnly.size(), 1u);
  EXPECT_EQ(S.ReadOnly[0].Host, Init.data());

  // A VM that never loaded its globals, restored from another VM's
  // snapshot (the WorkerPool's shared-snapshot path), maps the same bytes.
  Interpreter Restored(M, &RngB);
  Restored.restoreFromSnapshot(S);
  const std::vector<ReadOnlyRegion> &Map = Restored.memory().readOnlyRegions();
  ASSERT_EQ(Map.size(), 1u);
  EXPECT_EQ(Map[0].Host, Init.data());
  EXPECT_EQ(Map[0].Size, Init.size());
  expectReadsInitializer(Restored.memory(),
                         Restored.getGlobalAddress(PBoxGlobalName), Init);
  EXPECT_TRUE(Restored.run("victim").ok());
}

TEST(ReadOnlyMappingTest, EveryEngineHashesTheInitializer) {
  Module M("engines");
  buildVictim(M, 4);
  GlobalVariable *PBox = harden(M);
  ASSERT_NE(PBox, nullptr);
  const uint64_t Bytes = PBox->getInitializer().size() + 64;
  buildHashDriver(M, PBox, Bytes);
  const uint64_t Want = hostHash(PBox->getInitializer(), Bytes);

  for (int Engine = 0; Engine != 3; ++Engine) {
    SCOPED_TRACE(Engine);
    InterpreterOptions Opts;
    Opts.UseDecodedEngine = Engine != 0;
    Opts.UseJit = Engine == 2;
    Opts.JitThreshold = 0;
    DeterministicEntropySource Entropy(5);
    PseudoRandomSource Rng(Entropy);
    Interpreter VM(M, &Rng, Opts);
    ExecResult R = VM.run("driver");
    ASSERT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ReturnValue, Want);
  }
}

TEST(ReadOnlyMappingTest, EveryPoolWorkerReadsTheInitializer) {
  Module M("pool");
  buildVictim(M, 4);
  GlobalVariable *PBox = harden(M);
  ASSERT_NE(PBox, nullptr);
  const uint64_t Bytes = PBox->getInitializer().size() + 64;
  buildHashDriver(M, PBox, Bytes);
  const uint64_t Want = hostHash(PBox->getInitializer(), Bytes);

  // Four workers share worker 0's snapshot; contained crashes and worker
  // deaths rebuild them from it, so most requests after the first few run
  // on a VM restored from a snapshot another worker captured.
  PoolOptions Opts;
  Opts.Workers = 4;
  Opts.Function = "driver";
  Opts.QueueCapacity = 32;
  Opts.scriptWorkerChaos(0.25, 0.03);
  Opts.Supervision.HeartbeatMillis = 5;
  WorkerPool Pool(M, Opts);
  Pool.start();
  const uint64_t NumRequests = 96;
  for (uint64_t I = 0; I != NumRequests; ++I)
    ASSERT_TRUE(Pool.submit({I, {}}));
  std::vector<PoolOutcome> Outcomes = Pool.finish();
  ASSERT_EQ(Outcomes.size(), NumRequests);
  EXPECT_GT(Pool.books().CrashesContained, 0u);
  uint64_t Served = 0;
  for (const PoolOutcome &O : Outcomes) {
    if (O.Poisoned)
      continue;
    ++Served;
    ASSERT_EQ(O.Trap, TrapKind::None) << "request " << O.Index;
    EXPECT_EQ(O.ReturnValue, Want) << "request " << O.Index;
  }
  EXPECT_GT(Served, NumRequests / 2);
}
