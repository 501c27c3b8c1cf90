//===- vm/Engine.h - The VM's engines by command-line name -----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The drivers' -engine=jit|decoded|treewalk: one name table for the
/// interpreter's three engines, mapped onto InterpreterOptions'
/// UseDecodedEngine/UseJit, plus the one JIT-unavailable fallback.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_VM_ENGINE_H
#define SMOKESTACK_VM_ENGINE_H

#include "jit/JitAbi.h"
#include "vm/Interpreter.h"

#include <cstdio>
#include <string_view>

namespace smokestack {

enum class VmEngine : uint8_t { Jit, Decoded, TreeWalk };

/// The alternatives as a usage string.
inline constexpr const char *VmEngineChoices = "jit|decoded|treewalk";

/// Indexed by VmEngine: the name and the two InterpreterOptions flags.
inline constexpr struct {
  const char *Name;
  bool Decoded, Jit;
} VmEngines[] = {
    {"jit", true, true}, {"decoded", true, false}, {"treewalk", false, false}};

/// The command-line name of \p E ("jit", "decoded", "treewalk").
inline const char *engineName(VmEngine E) {
  return VmEngines[static_cast<unsigned>(E)].Name;
}

/// Looks \p Name up in the table; false when it names no engine.
inline bool parseEngine(std::string_view Name, VmEngine &Out) {
  for (unsigned I = 0; I != std::size(VmEngines); ++I)
    if (Name == VmEngines[I].Name) {
      Out = static_cast<VmEngine>(I);
      return true;
    }
  return false;
}

/// \p E, or VmEngine::Decoded after a warning on stderr when \p E is the
/// JIT and this host cannot run it.
inline VmEngine availableEngine(VmEngine E) {
  if (E != VmEngine::Jit || jitAvailable())
    return E;
  std::fprintf(stderr, "warning: JIT unavailable on this host; "
                       "falling back to the decoded engine\n");
  return VmEngine::Decoded;
}

/// Sets \p O's UseDecodedEngine and UseJit to serve under \p E.
inline void setEngine(InterpreterOptions &O, VmEngine E) {
  O.UseDecodedEngine = VmEngines[static_cast<unsigned>(E)].Decoded;
  O.UseJit = VmEngines[static_cast<unsigned>(E)].Jit;
}

} // namespace smokestack

#endif // SMOKESTACK_VM_ENGINE_H
