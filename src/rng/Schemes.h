//===- rng/Schemes.h - The paper's four randomness schemes -----*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table of the four randomness schemes the paper measures (Table I,
/// Fig. 3), in its order: the command-line name (smokestack-opt -rng=),
/// the label the paper and the benches print (the built source's name()),
/// and the factory. Every driver and bench that builds a scheme by name or
/// sweeps all four goes through this table.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_RNG_SCHEMES_H
#define SMOKESTACK_RNG_SCHEMES_H

#include "rng/AesCtr.h"
#include "rng/Pseudo.h"
#include "rng/RdRand.h"

#include <memory>
#include <string_view>

namespace smokestack {

struct RngScheme {
  const char *Name;
  const char *Label;
  std::unique_ptr<RandomSource> (*Make)(EntropySource &Entropy);
};

template <typename Source, unsigned... Args>
std::unique_ptr<RandomSource> makeRngScheme(EntropySource &Entropy) {
  return std::make_unique<Source>(Entropy, Args...);
}

inline constexpr RngScheme RngSchemes[] = {
    {"pseudo", "pseudo", makeRngScheme<PseudoRandomSource>},
    {"aes1", "AES-1", makeRngScheme<AesCtrRandomSource, 1>},
    {"aes10", "AES-10", makeRngScheme<AesCtrRandomSource, 10>},
    {"rdrand", "RDRAND", makeRngScheme<RdRandSource>},
};

/// The scheme whose command-line name is \p Name, or null.
inline const RngScheme *findRngScheme(std::string_view Name) {
  for (const RngScheme &S : RngSchemes)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

} // namespace smokestack

#endif // SMOKESTACK_RNG_SCHEMES_H
