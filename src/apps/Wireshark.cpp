//===- apps/Wireshark.cpp - Wireshark CVE-2014-2299 model ------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/Wireshark.h"

#include "attacks/Attacker.h"
#include "ir/IRBuilder.h"

using namespace smokestack;

namespace {

/// packet_list_dissect_and_cache_record:
///   locals col, cinfo (gadget operands), pd[1024] (overflowed buffer).
///   cf_read_frame_r() is modeled by the unbounded get_input(pd): the mpeg
///   frame length field is attacker-controlled and unchecked in the
///   vulnerable version.
///   After dissection the column text is written through col — with
///   corrupted (col, cinfo) this is an arbitrary 8-byte write.
void buildDissectRecord(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});
  GlobalVariable *Sink = M.createGlobal("g_colsink", B.i64());

  Function *F =
      M.createFunction("packet_list_dissect_and_cache_record", B.voidTy(), {});
  B.setInsertPoint(F->createBlock("entry"));
  AllocaInst *Col = B.alloca_(B.i64(), "col");
  AllocaInst *Cinfo = B.alloca_(B.i64(), "cinfo");
  AllocaInst *Pd = B.alloca_(B.getContext().getArrayTy(B.i8(), 1024), "pd");
  B.store(B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Sink), Col);
  B.store(B.constI64(0), Cinfo);
  B.call(GetInput, {Pd}); // cf_read_frame_r: unbounded frame copy
  Value *Dest = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                        B.load(B.i64(), Col));
  B.store(B.load(B.i64(), Cinfo), Dest); // column write gadget
  B.ret();
}

/// gtk_tree_view_column_cell_set_cell_data: iterates the cell list, calling
/// the dissector once per cell. `result` models the state the exploit
/// ultimately controls; `cell_idx` is the loop condition Hu et al.
/// corrupted to stitch gadget invocations.
void buildCellSetCellData(Module &M) {
  IRBuilder B(M);
  Function *Dissect =
      M.getFunction("packet_list_dissect_and_cache_record");

  Function *F = M.createFunction("gtk_tree_view_column_cell_set_cell_data",
                                 B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Result = B.alloca_(B.i64(), "result");
  AllocaInst *CellIdx = B.alloca_(B.i64(), "cell_idx");
  B.store(B.constI64(0), Result);
  B.store(B.constI64(0), CellIdx);
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::SLT, B.load(B.i64(), CellIdx),
                  B.constI64(4)),
           Body, Exit);
  B.setInsertPoint(Body);
  B.call(Dissect, {});
  B.store(B.add(B.load(B.i64(), CellIdx), B.constI64(1)), CellIdx);
  B.br(Loop);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Result));
}

} // namespace

void smokestack::buildWiresharkModule(Module &M) {
  buildDissectRecord(M);
  buildCellSetCellData(M);
}

AttackReport smokestack::runWiresharkExploit(const ScenarioConfig &Config) {
  const char *Callee = "packet_list_dissect_and_cache_record";
  const char *Caller = "gtk_tree_view_column_cell_set_cell_data";

  Module M("wireshark");
  buildWiresharkModule(M);
  DeployedDefense Deployed = deployDefense(M, Config.Defense, Config.BuildSeed);
  auto Lower = [&](const LayoutOracle &Oracle) -> std::optional<Exploit> {
    if (!Oracle.knows(Callee, "pd") || !Oracle.knows(Callee, "col") ||
        !Oracle.knows(Callee, "cinfo") || !Oracle.knows(Caller, "result") ||
        !Oracle.knows(Caller, "cell_idx"))
      return std::nullopt;
    int64_t Base = static_cast<int64_t>(Oracle.addressOf(Callee, "pd"));
    int64_t OffCol =
        static_cast<int64_t>(Oracle.addressOf(Callee, "col")) - Base;
    int64_t OffCinfo =
        static_cast<int64_t>(Oracle.addressOf(Callee, "cinfo")) - Base;
    int64_t OffIdx =
        static_cast<int64_t>(Oracle.addressOf(Caller, "cell_idx")) - Base;
    if (OffCol <= 0 || OffCinfo <= 0 || OffIdx <= 0)
      return std::nullopt; // the operands are unreachable
    // One oversized mpeg frame: linear sweep planting the write-what-where
    // pair (col=&caller.result, cinfo=target) and retiring the caller's
    // loop after this iteration (cell_idx=3, ++ -> 4).
    Payload Frame(0);
    Frame.pokeInt(static_cast<size_t>(OffCol),
                  Oracle.addressOf(Caller, "result"));
    Frame.pokeInt(static_cast<size_t>(OffCinfo), WiresharkTarget);
    Frame.pokeInt(static_cast<size_t>(OffIdx), 3);
    return Exploit{{Frame.bytes()}, returns(WiresharkTarget)};
  };
  return runCampaign(M, Deployed, Config.Rng, Caller, Config.Budget, Lower);
}
