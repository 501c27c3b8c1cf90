//===- attacks/Scenarios.h - Synthetic DOP attack scenarios ----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's synthetic penetration tests (Section V-C): data-oriented
/// attacks that corrupt stack-resident locals used as DOP gadget operands
/// and gadget-dispatcher loop counters, launched from buffers in the stack,
/// data segment, or heap, with direct and indirect (pointer-corrupting)
/// overflows. Each scenario builds a vulnerable Mini-IR program patterned
/// on the paper's Listing 1, deploys a chosen defense, runs the attacker's
/// probe-then-exploit campaign, and classifies the outcome.
///
/// The attacker follows the threat model: one disclosure/probing pass over
/// the deployed binary (running process or same build), then a bounded
/// number of exploit attempts against fresh executions.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_ATTACKS_SCENARIOS_H
#define SMOKESTACK_ATTACKS_SCENARIOS_H

#include "attacks/Attacker.h"

namespace smokestack {

class RandomSource;

/// Where the overflowed buffer lives.
enum class BufferRegion { Stack, Global, Heap };

/// Printable region name.
const char *bufferRegionName(BufferRegion Region);

/// Knobs shared by the scenario drivers.
struct ScenarioConfig {
  DefenseKind Defense = DefenseKind::None;
  /// Seed for every compile-time random choice of the deployed build.
  uint64_t BuildSeed = 1;
  /// Exploit attempts before the attacker gives up (crash-restart budget).
  unsigned Budget = 8;
  /// Runtime randomness for Smokestack deployments (ignored otherwise).
  RandomSource *Rng = nullptr;
};

/// The value the direct-attack payload drives the victim to return; the
/// attack counts as successful only if this exact DOP computation happens.
inline constexpr uint64_t DirectDopTarget = 0xC0FFEE;

/// The direct attack's overflow record against a disclosed Listing-1
/// layout: a sweep from vuln's `buff` up into driver's frame planting
/// acc=DirectDopTarget, op=5 (the set-step gadget, so acc is untouched) and
/// ctr=7 (making this the dispatcher's final round). nullopt when the
/// layout was not disclosed or puts a target below the buffer.
std::optional<Payload> buildDirectPayload(const LayoutOracle &Oracle);

/// Paper-Listing-1 shape: a dispatcher loop in `driver` whose operands
/// (acc/step), opcode (op), and loop counter (ctr) are corrupted by a
/// linear overflow of a buffer in the callee `vuln` — a classic direct
/// stack-to-stack DOP attack.
AttackReport runDirectDopAttack(const ScenarioConfig &Config);

/// Indirect attack: the overflow (in \p Region) first corrupts an adjacent
/// data pointer, then the program's own store-through-pointer writes an
/// attacker value into a stack local (`secret` plus a second `check` word —
/// both must hit for the privilege escalation to count).
AttackReport runIndirectPointerAttack(BufferRegion Region,
                                      const ScenarioConfig &Config);

/// The PRNG state-compromise attack: a Smokestack deployment running the
/// memory-resident `pseudo` generator. The attacker discloses the 16 state
/// bytes, clones the generator, simulates the next execution to predict
/// every frame layout, and lands the direct DOP attack first try. This is
/// why Table I classes `pseudo` as security "None".
AttackReport runPseudoPredictionAttack(uint64_t Seed, unsigned Budget = 4);

/// Success-rate probe: runs the direct attack's exploit attempt \p Trials
/// times against a Smokestack deployment and returns how many succeeded
/// (expected ~0; reported in the experiment logs).
unsigned countDirectAttackSuccesses(unsigned Trials, uint64_t Seed);

/// Success-rate probe for the indirect attack under Smokestack. Single-
/// write attacks retain residual per-try luck of roughly 1/(#distinct
/// layouts); the experiments report the measured rate.
unsigned countIndirectAttackSuccesses(BufferRegion Region, unsigned Trials,
                                      uint64_t Seed);

} // namespace smokestack

#endif // SMOKESTACK_ATTACKS_SCENARIOS_H
