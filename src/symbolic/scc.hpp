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

/// The same, when every non-trivial SCC inside `domain` is known to hold a
/// state of `seeds` (an IncrementCone and its sources): lockstep pivots are
/// drawn from the seeds, and work sets without a seed are dropped.
[[nodiscard]] SccResult nontrivialSccs(const ImageEngine& engine,
                                       const bdd::Bdd& domain,
                                       const bdd::Bdd& seeds);

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

/// Where a batch `delta` added to an acyclic base can have closed a cycle.
/// `states` is F ∩ B: F is the forward closure of delta's targets inside
/// the domain, B the backward closure of `sources` within F. `sources` is
/// delta's in-domain sources that lie in F. Both are false when the batch
/// is certainly acyclic.
struct IncrementCone {
  bdd::Bdd states;
  bdd::Bdd sources;

  [[nodiscard]] bool empty() const { return states.isFalse(); }
};

/// The cone of a batch over an engine holding base ∪ delta.
/// Precondition: (combined \ delta) restricted to `domain` is acyclic.
/// Every cycle of combined|domain then passes through a delta edge (s,t),
/// so its whole SCC lies in the cone and contains the cone source s. The
/// cone is a union of SCCs of combined|domain, so SCC detection restricted
/// to it, seeded from its sources, finds exactly the nontrivial SCCs of
/// the whole domain. The forward BFS is the incremental fast path: when it
/// closes without meeting a delta source the cone is empty and the BFS
/// costs the same steps as a bare acyclicity test — the common case for
/// locally-correctable protocols (coloring), mirroring the paper's
/// observation that coloring never forms SCCs. Image and preimage rounds
/// are added to `*steps`.
[[nodiscard]] IncrementCone incrementCone(const ImageEngine& combined,
                                          const bdd::Bdd& delta,
                                          const bdd::Bdd& domain,
                                          std::size_t* steps = nullptr);

}  // namespace stsyn::symbolic
