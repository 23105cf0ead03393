// Symbolic detection of non-trivial strongly connected components.
//
// The paper's Identify_Resolve_Cycles routine uses the symbolic SCC
// algorithm of Gentilini et al. We implement the lockstep divide-and-conquer
// scheme (Bloem/Gabow/Somenzi) on top of an ImageEngine — a disjunctively
// partitioned transition relation whose monolithic union is never needed —
// with a cycle-core trimming prepass. Partitioning keeps every image and
// preimage operand small and local (the per-process relations of ring
// protocols touch only neighbouring variables), which is what lets the
// coloring benchmark scale to the paper's 40 processes. Every result is
// cross-checked against an explicit Tarjan oracle in the test suite.
#pragma once

#include <vector>

#include "symbolic/frontier.hpp"
#include "symbolic/relations.hpp"

namespace stsyn::symbolic {

struct SccResult {
  /// Non-trivial SCCs (at least one internal transition: either two or more
  /// states, or a single state with a self-loop), as current-state
  /// predicates. Order is deterministic.
  std::vector<bdd::Bdd> components;

  /// Total symbolic steps (image/preimage rounds) spent — a complexity
  /// probe.
  std::size_t symbolicSteps = 0;
};

/// Computes the non-trivial SCCs of the engine's relation restricted to the
/// state set `domain` (both endpoints inside `domain`). Per-part products
/// are accounted into the engine's (shared) counters.
[[nodiscard]] SccResult nontrivialSccs(const ImageEngine& engine,
                                       const bdd::Bdd& domain);

/// Monolithic-relation convenience overload.
[[nodiscard]] SccResult nontrivialSccs(const SymbolicProtocol& sp,
                                       const bdd::Bdd& rel,
                                       const bdd::Bdd& domain);

/// True iff the engine's relation restricted to `domain` contains a cycle —
/// equivalent to nontrivialSccs(...).components being non-empty but cheaper
/// when the caller only needs a yes/no answer.
[[nodiscard]] bool hasCycle(const ImageEngine& engine, const bdd::Bdd& domain);

/// Monolithic-relation convenience overload.
[[nodiscard]] bool hasCycle(const SymbolicProtocol& sp, const bdd::Bdd& rel,
                            const bdd::Bdd& domain);

/// Incremental one-sided acyclicity test over an engine holding base ∪
/// delta. Precondition: (combined \ delta) restricted to `domain` is
/// acyclic. Any cycle of combined|domain must then pass through a delta
/// edge, so it is ruled out whenever the forward cone of delta's targets
/// never meets delta's sources. Returns true when the combination is
/// CERTAINLY acyclic; false means "possibly cyclic — run full SCC
/// detection". This is the fast path that lets the synthesis of
/// locally-correctable protocols (coloring) skip SCC detection entirely,
/// mirroring the paper's observation that coloring never forms SCCs.
[[nodiscard]] bool certainlyAcyclicIncrement(const ImageEngine& combined,
                                             const bdd::Bdd& delta,
                                             const bdd::Bdd& domain,
                                             std::size_t* steps = nullptr);

/// Monolithic convenience overload over base ∪ delta.
[[nodiscard]] bool certainlyAcyclicIncrement(const SymbolicProtocol& sp,
                                             const bdd::Bdd& base,
                                             const bdd::Bdd& delta,
                                             const bdd::Bdd& domain,
                                             std::size_t* steps = nullptr);

}  // namespace stsyn::symbolic
