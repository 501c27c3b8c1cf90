//===- attacks/Attacker.cpp - Attacker toolbox ------------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/Attacker.h"

#include "rng/Pseudo.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"
#include "vm/Snapshot.h"

#include <cassert>
#include <cstring>

using namespace smokestack;

const char *smokestack::attackOutcomeName(AttackOutcome Outcome) {
  switch (Outcome) {
  case AttackOutcome::Succeeded:
    return "SUCCEEDED";
  case AttackOutcome::StoppedByTrap:
    return "stopped-by-trap";
  case AttackOutcome::MissedTarget:
    return "missed-target";
  }
  smokestack_unreachable("unknown attack outcome");
}

bool LayoutOracle::knows(const std::string &Func,
                         const std::string &Var) const {
  auto FIt = Layout.find(Func);
  return FIt != Layout.end() && FIt->second.count(Var);
}

uint64_t LayoutOracle::addressOf(const std::string &Func,
                                 const std::string &Var) const {
  assert(knows(Func, Var) && "oracle was never shown this variable");
  return Layout.at(Func).at(Var).Addr;
}

int64_t LayoutOracle::distance(const std::string &Func,
                               const std::string &From,
                               const std::string &To) const {
  return static_cast<int64_t>(addressOf(Func, To)) -
         static_cast<int64_t>(addressOf(Func, From));
}

void Payload::pokeInt(size_t Offset, uint64_t Value, unsigned Width) {
  assert(Width >= 1 && Width <= 8);
  if (Offset + Width > Bytes.size())
    Bytes.resize(Offset + Width, 'A');
  for (unsigned I = 0; I != Width; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

void Payload::pokeBytes(size_t Offset, const void *Data, size_t Size) {
  if (Offset + Size > Bytes.size())
    Bytes.resize(Offset + Size, 'A');
  std::memcpy(Bytes.data() + Offset, Data, Size);
}

uint64_t smokestack::predictPseudoDraw(const uint8_t DisclosedState[16],
                                       unsigned Draws) {
  assert(Draws > 0 && "must predict at least one draw");
  uint64_t State[2];
  std::memcpy(State, DisclosedState, 16);
  uint64_t Value = 0;
  for (unsigned I = 0; I != Draws; ++I)
    Value = PseudoRandomSource::stepState(State);
  return Value;
}

namespace {

/// Runs \p EntryFunc once on \p VM with a first-placement oracle attached
/// and detaches it again: the disclosure probe on a caller-owned VM.
LayoutOracle probeOn(Interpreter &VM, const std::string &EntryFunc) {
  LayoutOracle Oracle(/*KeepFirst=*/true);
  VM.setLayoutObserver(&Oracle);
  VM.run(EntryFunc);
  VM.setLayoutObserver(nullptr);
  return Oracle;
}

} // namespace

LayoutOracle smokestack::probeLayout(Module &M,
                                     const DeployedDefense &Deployed,
                                     RandomSource *Rng,
                                     const std::string &EntryFunc) {
  Interpreter ProbeVM(M, Rng, Deployed.InterpOpts);
  return probeOn(ProbeVM, EntryFunc);
}

SuccessTest smokestack::returns(uint64_t Value) {
  return [Value](uint64_t ReturnValue, const std::string &) {
    return ReturnValue == Value;
  };
}

AttackReport smokestack::runCampaign(Module &M,
                                     const DeployedDefense &Deployed,
                                     RandomSource *Rng,
                                     const std::string &EntryFunc,
                                     unsigned Budget,
                                     const ExploitLowering &Lower) {
  AttackReport Report;
  // One VM serves the whole campaign: every attempt restores the
  // post-load snapshot, which is bitwise a freshly constructed VM
  // (vm/Snapshot.h). Loading, capture and restore draw nothing from Rng,
  // so the draw order is the probe's, then each attempt's.
  Interpreter VM(M, Rng, Deployed.InterpOpts);
  VmSnapshot Clean = VM.captureSnapshot();
  std::optional<Exploit> E = Lower(probeOn(VM, EntryFunc));
  if (!E) {
    Report.Detail = "disclosed layout offers no reachable targets";
    return Report;
  }

  TrapKind LastTrap = TrapKind::None;
  for (unsigned Attempt = 1; Attempt <= Budget; ++Attempt) {
    Report.AttemptsUsed = Attempt;
    VM.restoreFromSnapshot(Clean);
    for (const std::vector<uint8_t> &Record : E->Records)
      VM.pushInput(Record);
    ExecResult R = VM.run(EntryFunc);
    if (R.ok() && E->Landed(R.ReturnValue, VM.output())) {
      Report.Outcome = AttackOutcome::Succeeded;
      Report.Detail = formatString("attempt %u achieved the attack's effect",
                                   Attempt);
      return Report;
    }
    if (!R.ok())
      LastTrap = R.Trap;
  }

  if (LastTrap != TrapKind::None) {
    Report.Outcome = AttackOutcome::StoppedByTrap;
    Report.Trap = LastTrap;
    Report.Detail = formatString("all %u attempts failed; last trap: %s",
                                 Budget, trapKindName(LastTrap));
  } else {
    Report.Detail =
        formatString("all %u attempts ran clean without the effect", Budget);
  }
  return Report;
}
