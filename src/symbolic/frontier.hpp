// Disjunctively partitioned image computation.
//
// Every fixpoint in the synthesis — ComputeRanks' backward BFS, the
// weak-convergence check, the heuristic passes, and symbolic SCC
// detection — is a sequence of image/preimage products. The protocol
// relation is naturally DISJUNCTIVE: it is a union of per-process
// relations, and the paper's write restrictions mean process j's
// transitions satisfy frame_j (every variable j cannot write stays
// unchanged). ImageEngine exploits both facts:
//
//   * the union is never built (policy PerProcess): each product runs
//     against one small per-process operand,
//   * the frame conjuncts are stripped once per part, so the relational
//     product quantifies only the CURRENT copy of j's written variables
//     (image) or only their NEXT copy (preimage) — cubes of a few levels
//     instead of the whole state copy:
//
//       local_j   = exists next(unwritten_j). part_j
//       image_j(S)    = rename_{next W_j -> cur W_j}(
//                           exists cur(W_j). local_j AND S)
//       preimage_j(S) = exists next(W_j). local_j AND
//                           rename_{cur W_j -> next W_j}(S)
//
//     The identities hold because frame_j pins every unwritten variable,
//     and the partial renames stay order-preserving under dynamic
//     reordering because each interleaved (cur, next) bit pair sifts as
//     one atomic block (see Encoding).
//
// This is the scaling technique of the related symbolic-synthesis work
// (Faghih & Bonakdarpour; Alur et al.): keep image operands small and
// local instead of conjoining state sets with one monolithic relation.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "symbolic/relations.hpp"

namespace stsyn::symbolic {

/// How an ImageEngine computes image/preimage products.
enum class ImagePolicy {
  /// One product against the union of all parts (the historical scheme).
  Monolithic,
  /// One product per process part, never materializing the union; each
  /// product uses the small frame-stripped cubes above.
  PerProcess,
  /// Resolved per engine at construction from the measured shapes:
  /// PerProcess only when the materialized union outgrows the parts'
  /// summed node counts (sharing-starved union — per-part products then
  /// traverse fewer nodes than one product against the union), else
  /// Monolithic. See kAutoPartitionNodeThreshold.
  Auto,
};

[[nodiscard]] const char* toString(ImagePolicy policy);

/// Parses "monolithic" / "perprocess" / "auto"; nullopt on anything else.
[[nodiscard]] std::optional<ImagePolicy> parseImagePolicy(
    std::string_view name);

/// The process-wide default policy: $STSYN_IMAGE_POLICY when set to a
/// parseable value (warns once on stderr otherwise), else Auto. Re-read on
/// every call so tests and embedders can flip the environment between
/// engines (the old once-cached behavior silently ignored such changes).
[[nodiscard]] ImagePolicy defaultImagePolicy();

/// Inert: image products are always sequential. Kept, reading no
/// environment, because perfbench/ still prints it in its run banner.
[[nodiscard]] constexpr std::size_t defaultImageWorkers() { return 1; }

/// Below this many summed part nodes Auto always resolves Monolithic:
/// the engine is too small for per-part bookkeeping to pay regardless of
/// sharing (tuned on the four case studies, see bench/ablation_partition).
inline constexpr std::size_t kAutoPartitionNodeThreshold = 512;

/// Above the small threshold, Auto partitions only when the union's node
/// count exceeds this multiple of the parts' summed node counts. One
/// monolithic product costs O(|union| * |S|) memoized traversals while
/// per-part products cost roughly O(sum |part_j| * |S|) plus per-part
/// rename/or overhead, so a partitioned engine only wins when the union
/// loses the sharing the parts had — the classic disjunctive-partitioning
/// blow-up. On the paper's case studies the interleaved variable order
/// keeps every union well below its parts' total, so Auto stays
/// monolithic there (measured in bench/ablation_partition).
inline constexpr std::size_t kAutoUnionBlowupFactor = 2;

/// Work counters of one engine (drained into SynthesisStats by callers).
struct ImageEngineStats {
  std::size_t imageCalls = 0;     ///< image() invocations
  std::size_t preimageCalls = 0;  ///< preimage() invocations
  std::size_t partProducts = 0;   ///< per-part relational products computed
};

/// A transition relation prepared for repeated image/preimage products.
///
/// Two construction modes:
///   * per-process (one part per process; part j must satisfy frame(j) —
///     asserted in debug builds), partitioned or monolithic per policy,
///   * monolithic (a single arbitrary relation).
///
/// Engines are value types (cheap to copy relative to the fixpoints they
/// serve; copies share the stats counter) and confined to the
/// SymbolicProtocol's manager thread.
class ImageEngine {
 public:
  /// Per-process engine: parts[j] holds process j's transitions and must
  /// imply frame(j). parts.size() must equal sp.processCount(). Auto
  /// resolves here from the part node counts.
  ImageEngine(const SymbolicProtocol& sp, std::vector<bdd::Bdd> parts,
              ImagePolicy policy = defaultImagePolicy());

  /// Monolithic engine over one relation (policy is irrelevant).
  ImageEngine(const SymbolicProtocol& sp, bdd::Bdd rel);

  /// Engine over the input protocol's own per-process relations.
  [[nodiscard]] static ImageEngine forProtocol(
      const SymbolicProtocol& sp, ImagePolicy policy = defaultImagePolicy());

  [[nodiscard]] const SymbolicProtocol& sp() const { return *sp_; }

  /// True when products run per part (resolved policy).
  [[nodiscard]] bool partitioned() const { return partitioned_; }

  /// The resolved policy (never Auto).
  [[nodiscard]] ImagePolicy policy() const {
    return partitioned_ ? ImagePolicy::PerProcess : ImagePolicy::Monolithic;
  }

  [[nodiscard]] std::size_t partCount() const { return parts_.size(); }
  [[nodiscard]] const bdd::Bdd& part(std::size_t i) const {
    return parts_[i];
  }

  /// The union of the parts (memoized; building it forfeits nothing — the
  /// products keep using the parts).
  [[nodiscard]] const bdd::Bdd& relation() const;

  /// Successors of S: { s' : exists s in S, (s,s') in some part }.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& s) const;
  /// Successors of S intersected with `within`, applied per part so
  /// intermediate unions stay inside `within`.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& s, const bdd::Bdd& within) const;

  /// Predecessors of S under the union of the parts.
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& s) const;
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& s,
                                  const bdd::Bdd& within) const;

  /// States with at least one outgoing / incoming transition.
  [[nodiscard]] bdd::Bdd sources() const;
  [[nodiscard]] bdd::Bdd targets() const;

  /// A new engine over every part restricted to both endpoints in X
  /// (SymbolicProtocol::restrictRel per part). Preserves the mode.
  [[nodiscard]] ImageEngine restricted(const bdd::Bdd& x) const;

  /// Replaces part i (per-process mode: the new part must still imply
  /// frame(i)). Invalidates the memoized union.
  void updatePart(std::size_t i, bdd::Bdd part);

  /// Grows part i by `delta` (part_i |= delta). Unlike updatePart this
  /// keeps the memoized union and the frame-stripped local valid by
  /// growing them in place — the synthesis hot loop commits thousands of
  /// candidate batches, and rebuilding a K-way union per batch dominates
  /// everything else. In per-process mode `delta` must imply frame(i).
  void growPart(std::size_t i, const bdd::Bdd& delta);

  /// Work counters. Shared between an engine and every copy derived from
  /// it (restricted() trim copies in particular), so fixpoints that spin
  /// off restricted engines still account into the caller's engine.
  [[nodiscard]] const ImageEngineStats& stats() const { return *stats_; }

  /// Returns and clears the counters (drain-style accounting into
  /// SynthesisStats). Drains every copy sharing the counter.
  ImageEngineStats drainStats() const {
    return std::exchange(*stats_, ImageEngineStats{});
  }

 private:
  void buildProcessOps();
  void stripFrame(std::size_t j);
  [[nodiscard]] bool resolveAuto() const;
  [[nodiscard]] bdd::Bdd imagePart(std::size_t i, const bdd::Bdd& s) const;
  [[nodiscard]] bdd::Bdd preimagePart(std::size_t i, const bdd::Bdd& s) const;

  /// Per-process quantification cubes and partial renames (only in
  /// partitioned mode, aligned with parts_).
  struct ProcessOps {
    bdd::Bdd local;            ///< part with the frame conjuncts stripped
    bdd::Bdd curWrittenCube;   ///< cur levels of the written variables
    bdd::Bdd nextWrittenCube;  ///< next levels of the written variables
    bdd::Bdd nextUnwrittenCube;  ///< next levels of everything else
    std::vector<bdd::Var> nextToCurWritten;  ///< partial rename, next->cur
    std::vector<bdd::Var> curToNextWritten;  ///< partial rename, cur->next
  };

  const SymbolicProtocol* sp_ = nullptr;
  std::vector<bdd::Bdd> parts_;
  std::vector<ProcessOps> ops_;  ///< empty unless partitioned
  bool partitioned_ = false;     ///< resolved policy
  mutable bdd::Bdd union_;       ///< memoized relation(); null until built
  std::shared_ptr<ImageEngineStats> stats_ =
      std::make_shared<ImageEngineStats>();
};

}  // namespace stsyn::symbolic
