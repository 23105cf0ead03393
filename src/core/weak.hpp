// Sound and complete synthesis of WEAK convergence (Theorem IV.1).
//
// The intermediate protocol p_im of ComputeRanks is itself the weakly
// stabilizing version whenever every state has a finite rank; when some
// state has rank infinity, no stabilizing version (weak or strong) exists.
#pragma once

#include "core/ranks.hpp"

namespace stsyn::core {

struct WeakResult {
  /// True iff a weakly stabilizing version exists (and `relation` holds it).
  bool success = false;

  /// delta_pim on success; the partial relation otherwise.
  bdd::Bdd relation;

  /// Witness of impossibility: states with no recovery path even under the
  /// weakest legal completion of the protocol. Empty on success.
  bdd::Bdd rankInfinityStates;

  Ranking ranking;
  SynthesisStats stats;
};

/// The trailing std::size_t is ignored; it is kept so perfbench/'s
/// three-argument call still compiles.
[[nodiscard]] WeakResult addWeakConvergence(
    const symbolic::SymbolicProtocol& sp,
    symbolic::ImagePolicy policy = symbolic::defaultImagePolicy(),
    std::size_t /*ignored*/ = 1);

}  // namespace stsyn::core
