//===- attacks/Attacker.h - Attacker toolbox -------------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adversary of the paper's threat model (Section III-B), as reusable
/// machinery:
///
///  - LayoutOracle: records where a function's locals landed during a
///    *probe* execution — the stand-in for a memory-disclosure read plus
///    knowledge of program semantics. Probing a statically randomized
///    binary fully de-randomizes it (Section II-C); probing a Smokestack
///    binary yields information that is stale by the next invocation.
///  - Payload: little-endian byte-poking helper for building overflow
///    records that sweep from a buffer up to chosen targets while
///    preserving the bytes in between.
///  - predictPseudoDraws: replays a disclosed in-memory PRNG state to
///    anticipate future permutation indices (why `pseudo` is unsafe).
///  - runCampaign: the threat model's attacker policy (Section V-C) — one
///    disclosure probe of the deployed binary, one lowering of the exploit
///    against the disclosed layout, then a bounded number of exploit
///    attempts against fresh executions. Every attack driver is a victim
///    builder plus a lowering handed to this one runner.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_ATTACKS_ATTACKER_H
#define SMOKESTACK_ATTACKS_ATTACKER_H

#include "attacks/AttackReport.h"
#include "defenses/Deploy.h"
#include "vm/Interpreter.h"

#include <functional>
#include <map>
#include <optional>

namespace smokestack {

/// Captures the most recent address of every named alloca, per function —
/// the product of a disclosure/probing pass by the attacker.
class LayoutOracle : public LayoutObserver {
public:
  /// With \p KeepFirst the oracle retains the first observed placement of
  /// each variable (attacks target the first invocation); by default the
  /// most recent placement wins.
  explicit LayoutOracle(bool KeepFirst = false) : KeepFirst(KeepFirst) {}

  void onAlloca(const Function &F, const AllocaInst &Alloca, uint64_t Addr,
                uint64_t Size) override {
    auto &Slot = Layout[F.getName()][Alloca.getName()];
    if (KeepFirst && Slot.Size != 0)
      return;
    Slot = {Addr, Size};
  }

  void onVariableAddress(const Function &F, const std::string &Name,
                         uint64_t Addr) override {
    auto &Slot = Layout[F.getName()][Name];
    if (KeepFirst && Slot.Size != 0)
      return;
    Slot = {Addr, 1};
  }

  /// True if variable \p Var of \p Func was observed.
  bool knows(const std::string &Func, const std::string &Var) const;

  /// Disclosed address of \p Var in \p Func (asserts if unknown).
  uint64_t addressOf(const std::string &Func, const std::string &Var) const;

  /// Distance from \p From's start to \p To's start within \p Func.
  /// Positive when \p To sits above (at a higher address than) \p From.
  int64_t distance(const std::string &Func, const std::string &From,
                   const std::string &To) const;

  void clear() { Layout.clear(); }

private:
  struct Placement {
    uint64_t Addr = 0;
    uint64_t Size = 0;
  };
  bool KeepFirst;
  std::map<std::string, std::map<std::string, Placement>> Layout;
};

/// An overflow record under construction. Bytes default to 'A' filler; the
/// attacker pokes target values at the offsets the oracle disclosed.
class Payload {
public:
  explicit Payload(size_t Length, uint8_t Filler = 'A')
      : Bytes(Length, Filler) {}

  /// Writes the low \p Width bytes of \p Value at \p Offset (extending the
  /// payload if needed — a longer record simply overflows further).
  void pokeInt(size_t Offset, uint64_t Value, unsigned Width = 8);

  /// Copies raw bytes at \p Offset.
  void pokeBytes(size_t Offset, const void *Data, size_t Size);

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  size_t size() const { return Bytes.size(); }

private:
  std::vector<uint8_t> Bytes;
};

/// Replays \p Draws outputs of the victim's xorshift128+ generator from a
/// disclosed 16-byte state snapshot, returning the final draw. This is the
/// Kelsey-style state-compromise attack on memory-resident PRNGs.
uint64_t predictPseudoDraw(const uint8_t DisclosedState[16], unsigned Draws);

/// One benign run of \p EntryFunc over the deployed module with a
/// first-placement oracle attached: the attacker's disclosure probe. For a
/// statically randomized build this fully de-randomizes it; for a
/// Smokestack build it discloses one invocation's (stale) layout.
LayoutOracle probeLayout(Module &M, const DeployedDefense &Deployed,
                         RandomSource *Rng, const std::string &EntryFunc);

/// Decides, from a clean run's return value and printed output, whether an
/// exploit attempt achieved the attacker's effect.
using SuccessTest =
    std::function<bool(uint64_t ReturnValue, const std::string &Output)>;

/// Success test for exploits whose effect is the entry function returning
/// \p Value.
SuccessTest returns(uint64_t Value);

/// An exploit lowered against one disclosed layout.
struct Exploit {
  /// Input records every attempt feeds the victim, in the order its
  /// get_input calls consume them.
  std::vector<std::vector<uint8_t>> Records;
  SuccessTest Landed;
};

/// Compiles the exploit against the probe's disclosed layout; nullopt when
/// the layout offers no reachable target (a defense win without a run).
using ExploitLowering =
    std::function<std::optional<Exploit>(const LayoutOracle &)>;

/// The probe-then-exploit campaign: probeLayout once, \p Lower once, then up
/// to \p Budget fresh executions of \p EntryFunc fed the exploit's records.
/// One Interpreter serves the campaign; each attempt restores its post-load
/// snapshot, so it runs on a VM bitwise equal to a fresh one and the P-BOX
/// is loaded once. The probe draws from \p Rng first and each attempt after
/// it; lowering draws nothing. Succeeded on the first attempt that lands;
/// otherwise StoppedByTrap carrying the most recent trap if any attempt
/// trapped, else MissedTarget. AttemptsUsed counts exploit runs, so a
/// layout that does not lower reports MissedTarget with AttemptsUsed == 0.
AttackReport runCampaign(Module &M, const DeployedDefense &Deployed,
                         RandomSource *Rng, const std::string &EntryFunc,
                         unsigned Budget, const ExploitLowering &Lower);

} // namespace smokestack

#endif // SMOKESTACK_ATTACKS_ATTACKER_H
