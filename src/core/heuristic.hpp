// The sound heuristic for adding STRONG convergence (paper Section V).
//
// Problem III.1: given p, a closed predicate I, and the topology's
// read/write restrictions, produce pss with (1) I unchanged, (2)
// delta_pss|I = delta_p|I, and (3) pss strongly converging to I. The
// heuristic adds whole transition groups as recovery in three passes:
//
//   Pass 1  deadlocks in Rank[i] -> Rank[i-1], excluding groups with a
//           member that starts in I (C1) or reaches a deadlock (C4);
//   Pass 2  like pass 1 but C4 relaxed;
//   Pass 3  from any remaining deadlock to anywhere (C2 relaxed).
//
// After every per-process addition, groups whose groupmates close a cycle
// outside I are discarded (C3), using symbolic SCC detection
// (Identify_Resolve_Cycles in the paper's Figure 3).
//
// The heuristic is sound (a returned protocol is strongly stabilizing,
// re-verifiable via src/verify) but incomplete: it may declare failure
// although a stabilizing version exists.
#pragma once

#include <optional>

#include "core/ranks.hpp"
#include "core/schedule.hpp"
#include "symbolic/frontier.hpp"
#include "symbolic/relations.hpp"

namespace stsyn::core {

enum class Failure {
  None,
  /// A state has rank infinity: by Theorem IV.1 no stabilizing version of
  /// the input protocol exists at all.
  NoStabilizingVersionExists,
  /// p|¬I already contains a cycle whose transitions have groupmates inside
  /// I, so the cycle can be neither kept nor removed (preprocessing check).
  PreexistingCycleUnremovable,
  /// Deadlock states survived all three passes: the heuristic gives up
  /// (this does not prove unrealizability — the heuristic is incomplete).
  UnresolvedDeadlocks,
};

[[nodiscard]] const char* toString(Failure f);

struct StrongOptions {
  /// Recovery schedule; empty means the identity schedule.
  Schedule schedule;
  /// Upper bound on passes (1..3); lowering it is used by ablations.
  int maxPass = 3;
  /// Run the greedy cycle-resolution pass ("pass 4") when the paper's three
  /// passes leave deadlocks: candidate groups from the remaining deadlock
  /// states are retried ONE GROUP AT A TIME, each addition individually
  /// cycle-checked. This implements a simple instance of the "more
  /// intelligent cycle resolution" the paper lists as future work — the
  /// batch-level Identify_Resolve_Cycles removes every group of a strongly
  /// connected component even when adding a strict subset would have been
  /// acyclic. Sound for the same reason the other passes are; only runs
  /// when maxPass == 3. Disable to get exactly the published heuristic.
  bool greedyCycleResolution = true;
  /// Image/preimage computation policy for every fixpoint of the run —
  /// ranking BFS, deadlock scans, cycle checks and SCC detection. The
  /// policy selects between one monolithic relation and per-process
  /// partitioned products (see symbolic/frontier.hpp); the synthesized
  /// protocol is bit-identical either way.
  symbolic::ImagePolicy imagePolicy = symbolic::defaultImagePolicy();
  /// Inert: image products are always sequential. Not settable; kept
  /// because perfbench/ still reads it.
  static constexpr std::size_t imageWorkers = 1;
};

struct StrongResult {
  bool success = false;
  Failure failure = Failure::None;

  /// The synthesized relation delta_pss (valid only on success, but always
  /// holds the partial result for diagnostics).
  bdd::Bdd relation;

  /// Recovery transitions added to each process (pss minus p, per process).
  std::vector<bdd::Bdd> addedPerProcess;

  /// Deadlock states that remained unresolved (empty on success).
  bdd::Bdd remainingDeadlocks;

  Ranking ranking;
  SynthesisStats stats;
};

/// Runs preprocessing + the three passes. Deterministic for a fixed input
/// and schedule.
[[nodiscard]] StrongResult addStrongConvergence(
    const symbolic::SymbolicProtocol& sp, const StrongOptions& options = {});

}  // namespace stsyn::core
