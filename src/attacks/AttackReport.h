//===- attacks/AttackReport.h - Attack outcome taxonomy --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classification of attack attempts, matching how the paper's Section V-C
/// describes results: an attack either achieves its intended effect,
/// corrupts unintended data and is caught by a check (function identifier,
/// canary, segfault), or lands on the wrong data and fizzles.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_ATTACKS_ATTACKREPORT_H
#define SMOKESTACK_ATTACKS_ATTACKREPORT_H

#include "vm/Trap.h"

#include <string>

namespace smokestack {

/// How an attack attempt (or budgeted campaign) ended.
enum class AttackOutcome {
  Succeeded,     ///< The attacker-intended effect was observed.
  StoppedByTrap, ///< A defense or memory protection terminated the run.
  MissedTarget,  ///< Ran to completion but without the intended effect.
};

/// Printable outcome name.
const char *attackOutcomeName(AttackOutcome Outcome);

/// Result of an attack campaign.
struct AttackReport {
  AttackOutcome Outcome = AttackOutcome::MissedTarget;
  /// Trap that ended the decisive attempt (None unless StoppedByTrap).
  TrapKind Trap = TrapKind::None;
  /// Exploit runs consumed (1 for single-shot attacks; 0 when the disclosed
  /// layout offered no reachable target, so no exploit ran).
  unsigned AttemptsUsed = 0;
  /// Human-readable detail for experiment logs.
  std::string Detail;

  bool succeeded() const { return Outcome == AttackOutcome::Succeeded; }
};

} // namespace smokestack

#endif // SMOKESTACK_ATTACKS_ATTACKREPORT_H
