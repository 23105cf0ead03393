// Instrumentation of a synthesis run — exactly the quantities the paper's
// experimental section reports: ranking time, SCC-detection time, total
// time (Figures 6/8/10) and BDD node counts: average SCC size and total
// program size (Figures 7/9/11).
#pragma once

#include <cstddef>
#include <string>

namespace stsyn::obs {
class JsonWriter;
}  // namespace stsyn::obs

namespace stsyn::symbolic {
struct ImageEngineStats;
}  // namespace stsyn::symbolic

namespace stsyn::core {

/// Version of the machine-readable stats/bench documents. Bump on any
/// removal or semantic change of a key; pure additions keep the version
/// (see docs/observability.md for the policy).
///
/// v2: the top-level document gained `cache_hit` and `deadline_exceeded`
/// (always present, so consumers can branch on them without existence
/// checks — that guarantee is the semantic change that forced the bump).
/// v3: the parallel image pool's three keys (its worker count, its
/// cross-manager node copies and its OR-reduction depth) were removed
/// with the pool; image products are always sequential.
inline constexpr int kStatsJsonSchemaVersion = 3;

struct SynthesisStats {
  double rankingSeconds = 0.0;
  double sccSeconds = 0.0;
  double totalSeconds = 0.0;

  std::size_t rankCount = 0;  ///< M: number of non-empty ranks

  std::size_t sccDetectionCalls = 0;
  /// Batches proven acyclic by the incremental cone test, skipping full
  /// SCC detection (always the case for the coloring protocol).
  std::size_t sccFastPathHits = 0;
  std::size_t sccComponentsFound = 0;
  std::size_t sccNodesTotal = 0;  ///< sum over components of BDD node counts
  std::size_t sccSymbolicSteps = 0;

  std::size_t programNodes = 0;   ///< BDD nodes of the synthesized relation
  std::size_t peakLiveNodes = 0;  ///< manager high-water mark
  /// High-water mark of the REACHABLE node count, sampled post-sweep at
  /// each GC (peakLiveNodes counts dead-but-unswept nodes too, so it
  /// mostly tracks the GC trigger schedule; this measures the function
  /// store). 0 when the run never collected.
  std::size_t peakReachableNodes = 0;

  std::size_t reorderRuns = 0;       ///< dynamic-reordering passes
  double reorderSeconds = 0.0;       ///< time spent sifting
  std::size_t reorderNodesSaved = 0; ///< cumulative live nodes freed by sifting

  std::size_t gcRuns = 0;        ///< manager garbage collections
  std::size_t cacheLookups = 0;  ///< operation-cache probes
  std::size_t cacheHits = 0;     ///< probes answered from the cache
  std::size_t cacheStores = 0;   ///< operation-cache result installs
  std::size_t uniqueProbes = 0;  ///< unique-table (mk) probes

  /// Pass that resolved the last deadlock: 1..3 are the paper's passes,
  /// 4 is the implementation's greedy cycle-resolution pass, 0 means the
  /// input needed no recovery.
  int passCompleted = 0;

  /// Image-computation policy the run was configured with ("monolithic",
  /// "perprocess" or "auto"; empty when the run predates the setting).
  std::string imagePolicy;

  /// Variable-order seed of the encoding the run synthesized against
  /// ("declared" or "static"; empty when the run predates the setting).
  std::string varOrder;

  std::size_t imageOps = 0;     ///< ImageEngine image() fixpoint steps
  std::size_t preimageOps = 0;  ///< ImageEngine preimage() fixpoint steps
  /// Per-part relational products across all engines of the run; equals
  /// imageOps + preimageOps (plus source/target scans) when every engine
  /// ran monolithic, larger under partitioning.
  std::size_t imagePartProducts = 0;
  /// Backward-BFS rounds of the ranking fixpoint (frontier-based, so each
  /// round quantifies only the newest rank).
  std::size_t frontierSteps = 0;

  /// Folds one engine's drained counters into this run's totals.
  void addEngine(const symbolic::ImageEngineStats& e);

  /// Average SCC size in BDD nodes (0 when no SCC was ever formed), the
  /// metric plotted in the paper's Figures 7 and 11.
  [[nodiscard]] double avgSccNodes() const {
    return sccComponentsFound == 0
               ? 0.0
               : static_cast<double>(sccNodesTotal) /
                     static_cast<double>(sccComponentsFound);
  }

  /// Fraction of cache probes that hit (0 when no probe ever ran).
  [[nodiscard]] double cacheHitRate() const {
    return cacheLookups == 0
               ? 0.0
               : static_cast<double>(cacheHits) /
                     static_cast<double>(cacheLookups);
  }

  [[nodiscard]] std::string summary() const;

  /// Writes this struct as one JSON object (every field, snake_case keys).
  /// The enclosing document carries the schema version.
  void writeJson(obs::JsonWriter& w) const;
};

}  // namespace stsyn::core
