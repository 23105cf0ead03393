// A from-scratch Reduced Ordered Binary Decision Diagram (ROBDD) package.
//
// This is the repository's substitute for the CUDD/GLU library the paper's
// STSyn tool used. It provides exactly the algebra the synthesis heuristic
// needs:
//
//   * canonical node storage (per-variable unique subtables) with
//     COMPLEMENT EDGES: f and NOT f occupy one node, negation is an O(1)
//     zero-allocation bit flip, and the "then-edge is always regular"
//     canonicalization keeps structural equality semantic,
//   * the boolean connectives (all conjunction-shaped ones served by a
//     single cached And kernel via De Morgan), ITE, and negation,
//   * existential/universal quantification over variable cubes,
//   * the AndExists relational product (the image/preimage workhorse),
//   * order-preserving variable renaming (current-state <-> next-state),
//   * model counting, support computation, cube extraction, and per-BDD
//     node counts (the space metric the paper's Figures 7/9/11 report),
//   * mark-and-sweep garbage collection driven by RAII external handles,
//   * Rudell-style dynamic variable reordering (grouped sifting) with
//     in-place adjacent-level swaps, so external handles survive a reorder.
//
// Variables vs. levels: a `Var` is a STABLE INDEX that names a variable
// for the whole lifetime of the manager; the variable's LEVEL (its
// position in the current order, 0 = topmost) starts out equal to the
// index but diverges once dynamic reordering runs. All public functions
// take and return variable indices; `levelOf()` / `varAtLevel()` expose
// the indirection.
//
// Concurrency: a Manager is CONFINED to one thread — the thread that
// constructed it. Debug builds assert the confinement at every public
// operation boundary, including the Bdd handle ref/deref path, so a
// cross-thread access crashes instead of corrupting counters or the node
// pool silently. Distinct Managers are independent and nothing crosses
// between them: parallel synthesis instances (one per recovery schedule,
// as in the paper's Figure 1) each own a Manager, and the portfolio hands
// each finished instance back to the joining thread with
// bindToCurrentThread.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace stsyn::bdd {

/// A tagged EDGE into a Manager's node pool: the least-significant bit is
/// the complement (attributed negation) bit, the remaining bits are the
/// pool index of a node. Edge 0 is the TRUE terminal, edge 1 its
/// complement FALSE — the pool holds a single terminal node and every
/// function/negation pair shares one node, so negation is an O(1) bit
/// flip that allocates nothing.
using NodeIndex = std::uint32_t;

/// Stable identifier of a boolean variable. Equal to the variable's level
/// in the order at Manager construction; the level may change under
/// dynamic reordering while the index never does.
using Var = std::uint32_t;

class Manager;

/// An owning, reference-counted handle to a BDD node.
///
/// Bdd values are cheap to copy; copying bumps an external reference count
/// in the Manager so garbage collection never frees a function the caller
/// still holds. A default-constructed Bdd is "null" and usable only as a
/// placeholder. Handles stay valid across dynamic reordering: a reorder
/// rewrites nodes in place and never changes which function a node index
/// denotes.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True for a handle that refers to an actual function.
  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }

  [[nodiscard]] bool isFalse() const;
  [[nodiscard]] bool isTrue() const;
  [[nodiscard]] bool isConstant() const { return isFalse() || isTrue(); }

  /// Structural identity; with canonical BDDs this is semantic equality.
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.index_ == b.index_;
  }

  // Boolean algebra. All operands must come from the same Manager.
  [[nodiscard]] Bdd operator&(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator|(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator^(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator!() const;
  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }
  /// Difference: this AND NOT rhs.
  [[nodiscard]] Bdd minus(const Bdd& rhs) const { return *this & !rhs; }
  /// Implication test: is (this -> rhs) a tautology?
  [[nodiscard]] bool implies(const Bdd& rhs) const;

  /// Existential quantification over the positive cube `cube`.
  [[nodiscard]] Bdd exists(const Bdd& cube) const;
  /// Universal quantification over the positive cube `cube`.
  [[nodiscard]] Bdd forall(const Bdd& cube) const;
  /// Relational product: exists cube. (this AND rhs), computed in one pass.
  [[nodiscard]] Bdd andExists(const Bdd& rhs, const Bdd& cube) const;

  /// If-then-else with this function as the condition: (this AND g) OR
  /// (NOT this AND h), computed in one pass.
  [[nodiscard]] Bdd ite(const Bdd& g, const Bdd& h) const;

  /// Functional composition: substitutes `g` for variable `v` in this
  /// function (this[v := g]).
  [[nodiscard]] Bdd compose(Var v, const Bdd& g) const;

  /// Renames variables: variable v becomes perm[v]. The permutation must
  /// preserve the relative ORDER (current levels) of this function's
  /// support (checked in debug builds).
  [[nodiscard]] Bdd rename(std::span<const Var> perm) const;

  /// Number of BDD nodes reachable from this function (terminals excluded),
  /// the space metric of the paper's experimental section.
  [[nodiscard]] std::size_t nodeCount() const;

  /// Number of satisfying assignments over exactly the variables in
  /// `vars` (strictly ascending indices). The support must be a subset of
  /// `vars`. Independent of the current variable order.
  [[nodiscard]] double satCount(std::span<const Var> vars) const;

  /// Variable indices occurring in this function, sorted by CURRENT LEVEL
  /// (topmost variable first). With the identity order this is ascending
  /// by index.
  [[nodiscard]] std::vector<Var> support() const;

  /// Evaluates the function on a complete assignment indexed by variable
  /// index.
  [[nodiscard]] bool eval(std::span<const char> assignment) const;

  /// One satisfying cube as a per-variable-index vector: 0, 1, or -1
  /// (don't-care). The cube returned is the lexicographically smallest
  /// satisfying assignment BY VARIABLE INDEX (don't-cares read as 0), so
  /// the choice is independent of the current variable order — the
  /// cross-engine parity of `pickTransition` depends on this.
  /// Precondition: not the constant false.
  [[nodiscard]] std::vector<signed char> onePath() const;

  /// Enumerates all satisfying assignments over `vars` (strictly ascending
  /// indices; must cover the support). The callback receives a per-position
  /// 0/1 vector aligned with `vars`. Enumeration order follows the current
  /// variable order; callers needing a canonical order must sort.
  void forEachSat(std::span<const Var> vars,
                  const std::function<void(std::span<const char>)>& fn) const;

  [[nodiscard]] Manager* manager() const { return mgr_; }
  [[nodiscard]] NodeIndex raw() const { return index_; }

 private:
  friend class Manager;
  Bdd(Manager* mgr, NodeIndex index);

  Manager* mgr_ = nullptr;
  NodeIndex index_ = 0;
};

/// Snapshot of a Manager's resource usage.
struct ManagerStats {
  std::size_t liveNodes = 0;      ///< currently allocated internal nodes
  std::size_t peakLiveNodes = 0;  ///< high-water mark since construction
  /// High-water mark of the REACHABLE node count, sampled after each
  /// mark-and-sweep (liveNodes includes dead-but-unswept nodes between
  /// collections, so its peak mostly reflects the GC trigger schedule;
  /// this one measures the function store itself). 0 until the first GC.
  std::size_t peakReachableNodes = 0;
  std::size_t gcRuns = 0;
  std::size_t nodesFreed = 0;  ///< cumulative nodes reclaimed by GC

  std::size_t cacheLookups = 0;  ///< operation-cache probes
  std::size_t cacheHits = 0;     ///< probes answered from the cache
  std::size_t cacheStores = 0;   ///< operation-cache result installs
  std::size_t uniqueProbes = 0;  ///< unique-table (mk) probes

  std::size_t reorderRuns = 0;  ///< completed sifting passes
  double reorderSeconds = 0.0;  ///< cumulative wall time spent sifting
  /// Cumulative live-node counts entering / leaving sifting passes, so
  /// (before - after) is the total reduction attributable to reordering.
  std::size_t reorderNodesBefore = 0;
  std::size_t reorderNodesAfter = 0;
};

/// Owner of the node pool, unique subtables, operation cache, GC machinery,
/// and the dynamic variable order.
class Manager {
 public:
  /// Creates a manager with a fixed number of boolean variables whose
  /// initial order equals their numeric index.
  explicit Manager(Var varCount);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  [[nodiscard]] Var varCount() const { return varCount_; }

  [[nodiscard]] Bdd constant(bool value);
  [[nodiscard]] Bdd falseBdd() { return constant(false); }
  [[nodiscard]] Bdd trueBdd() { return constant(true); }
  /// The projection function of variable `v` (or its negation).
  [[nodiscard]] Bdd var(Var v);
  [[nodiscard]] Bdd nvar(Var v);

  /// Conjunction of the positive literals of `vars` (a quantification
  /// cube). Duplicates are tolerated and ignored.
  [[nodiscard]] Bdd cube(std::span<const Var> vars);

  /// Conjunction over pairs (a, b) of the biconditional a <-> b.
  [[nodiscard]] Bdd equalVars(std::span<const std::pair<Var, Var>> pairs);

  [[nodiscard]] const ManagerStats& stats() const { return stats_; }

  /// Re-pins the manager to the calling thread after an ownership handoff
  /// (e.g. a portfolio worker finished and the main thread takes over the
  /// winning instance). The previous owner must have quiesced first.
  void bindToCurrentThread() { owner_ = std::this_thread::get_id(); }

  /// Lower bound on live nodes before the next GC attempt; GC runs lazily
  /// at public operation boundaries.
  void setGcThreshold(std::size_t nodes) { gcThreshold_ = nodes; }

  /// Forces a mark-and-sweep collection now.
  void collectGarbage();

  /// Walks every live node and verifies the structural invariants of the
  /// complement-edge representation: subtable membership matches the
  /// node's variable, the then-edge is regular (never complemented), no
  /// node is redundant (low != high), and children sit on strictly
  /// deeper levels. Throws std::logic_error on the first violation.
  /// Intended for tests (notably after reorder passes); cost is linear
  /// in the pool.
  void checkInvariants() const;

  // --- dynamic variable reordering ------------------------------------

  /// Current level (order position, 0 = topmost) of variable index `v`.
  [[nodiscard]] Var levelOf(Var v) const { return indexToLevel_[v]; }
  /// Variable index occupying order position `level`.
  [[nodiscard]] Var varAtLevel(Var level) const { return levelToIndex_[level]; }
  /// True while no reorder has moved any variable off its initial level.
  [[nodiscard]] bool orderIsIdentity() const { return orderIsIdentity_; }
  /// The full order, topmost first (levelToIndex).
  [[nodiscard]] std::vector<Var> currentOrder() const { return levelToIndex_; }

  /// Permutes the variable order to exactly `levelToIndex` (position 0 =
  /// topmost) via in-place adjacent swaps; external handles survive, the
  /// operation cache is invalidated. Intended for experiments and
  /// ablations (e.g. installing a deliberately bad order); the caller is
  /// responsible for keeping any registered groups contiguous if renames
  /// will run afterwards.
  void setLevelOrder(std::span<const Var> levelToIndex);

  /// Declares atomic reorder groups: each group is a list of variable
  /// indices that sifting keeps adjacent, in the given relative order.
  /// Members must sit on consecutive levels when this is called.
  /// Variables not mentioned sift individually. The protocol encoding
  /// registers its interleaved (current, next) bit pairs here so that
  /// current<->next renaming stays order-preserving under any reorder.
  void setReorderGroups(std::vector<std::vector<Var>> groups);

  /// Enables/disables automatic sifting, triggered at operation
  /// boundaries when live nodes exceed the reorder threshold.
  void enableAutoReorder(bool on = true) { autoReorder_ = on; }
  void setReorderThreshold(std::size_t nodes) { reorderThreshold_ = nodes; }
  [[nodiscard]] bool autoReorderEnabled() const { return autoReorder_; }

  /// Runs one grouped sifting pass now (collects garbage first). External
  /// handles remain valid; the operation cache is invalidated.
  void reorderNow();

  /// Writes `f` in Graphviz DOT syntax, labelling variables via `varName`
  /// (may be empty for numeric labels).
  void writeDot(std::ostream& os, const Bdd& f,
                const std::function<std::string(Var)>& varName = {}) const;

  /// Unique-table hash of an (var, low, high) triple. Public so benches
  /// and tests can assert its distribution quality at pool sizes beyond
  /// 2^20 nodes.
  [[nodiscard]] static std::uint64_t hashTriple(Var var, NodeIndex low,
                                                NodeIndex high);

 private:
  friend class Bdd;
  friend void saveBdd(std::ostream& os, const Bdd& f);
  /// Test-only backdoor (defined by the test binaries) used to plant
  /// adversarial cache entries for the GC sweep regression tests.
  friend struct ManagerTestAccess;

  struct Node {
    Var var;         // variable INDEX; kTerminalVar for the terminal
    NodeIndex low;   // EDGE to the cofactor at var=0 (may be complemented)
    NodeIndex high;  // EDGE to the cofactor at var=1 (always regular)
    NodeIndex next;  // unique-subtable chain / free-list link (NODE index)
  };

  struct CacheEntry {
    // Exact operands, not a hash: a false cache hit is a soundness bug.
    // The op tag is packed into the top 4 bits of `ka` (allocNode caps
    // node indices at 2^27, so a-operand edges need only 28 bits), which
    // keeps the entry at 16 aligned bytes: a probe touches exactly one
    // cache line, where a 20-byte entry straddles two about a third of
    // the time — measurable on a cache this much larger than LLC.
    NodeIndex ka = kCacheEmpty;  // (op << kCacheOpShift) | a-operand edge
    NodeIndex b = 0;
    NodeIndex c = 0;
    NodeIndex result = 0;
  };
  static constexpr int kCacheOpShift = 28;
  /// Empty-slot sentinel: op nibble 0xF is not a valid Op, so no stored
  /// key can ever equal it.
  static constexpr NodeIndex kCacheEmpty = ~NodeIndex{0};

  /// Unique table of the nodes of one variable. Keeping a subtable per
  /// variable makes "all nodes of variable v" — the unit a reorder swap
  /// rewrites — enumerable without scanning the pool.
  struct Subtable {
    std::vector<NodeIndex> buckets;  // heads; size a power of two
    std::size_t count = 0;           // live nodes of this variable
  };

  static constexpr Var kTerminalVar = ~Var{0};
  /// The single terminal node's pool index.
  static constexpr NodeIndex kTerminalNode = 0;
  /// Edges to the terminal: regular = TRUE, complemented = FALSE.
  static constexpr NodeIndex kTrue = 0;
  static constexpr NodeIndex kFalse = 1;
  static constexpr NodeIndex kNil = ~NodeIndex{0};

  // --- tagged-edge helpers --------------------------------------------
  [[nodiscard]] static constexpr NodeIndex nodeOf(NodeIndex e) {
    return e >> 1;
  }
  [[nodiscard]] static constexpr bool isComplement(NodeIndex e) {
    return (e & 1u) != 0;
  }
  [[nodiscard]] static constexpr NodeIndex negateEdge(NodeIndex e) {
    return e ^ 1u;
  }
  [[nodiscard]] static constexpr NodeIndex regularEdge(NodeIndex e) {
    return e & ~NodeIndex{1};
  }
  [[nodiscard]] static constexpr NodeIndex makeEdge(NodeIndex node,
                                                   bool complement) {
    return (node << 1) | NodeIndex{complement};
  }
  /// Pushes an edge's complement bit onto a child edge of its node.
  [[nodiscard]] static constexpr NodeIndex throughEdge(NodeIndex e,
                                                      NodeIndex child) {
    return child ^ (e & 1u);
  }

  /// Op::Not, Op::Or, and Op::Forall no longer exist: negation is a bit
  /// flip, and Or/Nand/Nor/Forall reach the And/Exists kernels through
  /// De Morgan — one unified cache per kernel.
  enum class Op : std::uint8_t {
    And,
    Xor,
    Ite,
    Exists,
    AndExists,
    Rename,
    Compose,
    Impl,
  };

  // --- node pool -----------------------------------------------------
  /// Returns the canonical EDGE for ITE(var; high, low); re-establishes
  /// the regular-then-edge invariant by negating through when `high` is
  /// complemented.
  [[nodiscard]] NodeIndex mk(Var var, NodeIndex low, NodeIndex high);
  [[nodiscard]] NodeIndex allocNode(Var var, NodeIndex low, NodeIndex high);
  void rehashSubtable(Subtable& st);

  /// Level of the edge's node's variable; the terminal gets the
  /// out-of-band maximal pseudo-level so every internal level compares
  /// smaller.
  [[nodiscard]] Var nodeLevel(NodeIndex e) const {
    const Var v = nodes_[nodeOf(e)].var;
    return v == kTerminalVar ? kTerminalVar : indexToLevel_[v];
  }

  // --- thread confinement ---------------------------------------------
  /// Debug-build check that the calling thread owns this manager; called
  /// at every public operation boundary (compiled out under NDEBUG). The
  /// stats_ counters are mutated through `mutable` on const paths
  /// (cacheLookup), which is safe exactly because of this confinement.
  void assertOwned() const {
    assert(owner_ == std::this_thread::get_id() &&
           "bdd::Manager is thread-confined: accessed off its owning "
           "thread (bindToCurrentThread() re-pins after a handoff)");
  }

  // --- external references & GC --------------------------------------
  void ref(NodeIndex n);
  void deref(NodeIndex n);
  void maybeGc();
  void markRecursive(NodeIndex n);

  // --- operation cache ------------------------------------------------
  [[nodiscard]] bool cacheLookup(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                                 NodeIndex& out) const;
  void cacheStore(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                  NodeIndex result);
  void clearCache();
  /// Doubles the cache (bounded) when the probes since the last GC show a
  /// low hit rate at high store pressure — the direct-mapped table is
  /// thrashing on conflicts, not cold misses. Called from collectGarbage.
  void maybeGrowCache();

  // --- recursive kernels ----------------------------------------------
  [[nodiscard]] NodeIndex andRec(NodeIndex f, NodeIndex g);
  [[nodiscard]] NodeIndex orRec(NodeIndex f, NodeIndex g) {
    return negateEdge(andRec(negateEdge(f), negateEdge(g)));
  }
  [[nodiscard]] NodeIndex xorRec(NodeIndex f, NodeIndex g);
  [[nodiscard]] bool implRec(NodeIndex f, NodeIndex g);
  [[nodiscard]] NodeIndex iteRec(NodeIndex f, NodeIndex g, NodeIndex h);
  [[nodiscard]] NodeIndex existsRec(NodeIndex f, NodeIndex cube);
  [[nodiscard]] NodeIndex andExistsRec(NodeIndex f, NodeIndex g,
                                       NodeIndex cube);
  [[nodiscard]] NodeIndex renameRec(NodeIndex f, std::span<const Var> perm,
                                    std::uint64_t permTag);
  [[nodiscard]] NodeIndex composeRec(NodeIndex f, Var v, NodeIndex g);

  // --- reordering (reorder.cpp) ---------------------------------------
  void buildReorderRefs();
  [[nodiscard]] NodeIndex reorderMk(Var var, NodeIndex low, NodeIndex high);
  void reorderUnlink(NodeIndex n);
  void reorderDeref(NodeIndex n);
  void swapAdjacentLevels(Var level);
  void swapAdjacentGroups(std::size_t pos);
  void siftGroup(std::size_t orderPos);
  [[nodiscard]] std::size_t groupNodeCount(std::size_t gid) const;
  [[nodiscard]] Var groupStartLevel(std::size_t pos) const;

  // --- analysis helpers (non-allocating) --------------------------------
  [[nodiscard]] std::size_t nodeCountOf(NodeIndex f) const;
  [[nodiscard]] double satCountOf(NodeIndex f,
                                  std::span<const Var> vars) const;
  void supportOf(NodeIndex f, std::vector<bool>& seenVar) const;
  [[nodiscard]] bool evalOf(NodeIndex f, std::span<const char> assign) const;

  // Public-facing wrappers used by Bdd.
  [[nodiscard]] Bdd wrap(NodeIndex n) { return Bdd(this, n); }

  Var varCount_;
  std::vector<Node> nodes_;
  std::vector<Subtable> subtables_;  // one per variable index
  NodeIndex freeList_ = kNil;
  std::size_t liveNodes_ = 0;

  std::vector<CacheEntry> cache_;
  std::vector<std::uint32_t> extRefs_;  // per-node external reference count

  std::size_t gcThreshold_;
  // Mutable: cacheLookup is const (a probe does not change the function
  // algebra) but still counts itself. Safe by construction: the manager is
  // confined to owner_'s thread (assertOwned at every public boundary), so
  // the counters are never bumped concurrently.
  mutable ManagerStats stats_;

  /// The confining thread; construction pins the manager to the
  /// constructing thread.
  std::thread::id owner_ = std::this_thread::get_id();

  // Dynamic order: index <-> level, both identity at construction.
  std::vector<Var> indexToLevel_;
  std::vector<Var> levelToIndex_;
  bool orderIsIdentity_ = true;

  // Reordering configuration and scratch state.
  bool autoReorder_ = false;
  std::size_t reorderThreshold_;
  std::vector<std::vector<Var>> reorderGroups_;  // partition of all vars
  std::vector<std::size_t> groupOrder_;  // group ids by position, sift scratch
  std::vector<std::uint32_t> reorderRefs_;  // total (ext+parent) refs, scratch

  // Rename permutations are interned per distinct permutation identity;
  // the content-hash index makes the repeated current<->next renames an
  // O(1) lookup instead of a linear scan over every permutation seen.
  std::vector<std::vector<Var>> internedPerms_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> permIndex_;

  // Cache-counter snapshots at the last adaptive-growth decision point.
  std::size_t cacheLookupsAtGrow_ = 0;
  std::size_t cacheHitsAtGrow_ = 0;
  std::size_t cacheStoresAtGrow_ = 0;

  // Scratch marks for GC / traversals.
  std::vector<bool> marks_;
};

/// Writes `f` in a self-describing text format (variable count, node
/// table, root) — the complement-edge-aware v2 format ("bdd2" header,
/// refs tagged with a complement bit). Loadable by loadBdd into any
/// manager with at least as many variables.
void saveBdd(std::ostream& os, const Bdd& f);

/// Reads a function previously written by saveBdd (the v2 "bdd2" format
/// only; any other header, including the pre-complement v1 "bdd", is
/// rejected). Throws std::runtime_error on malformed input (bad header,
/// bad references, rows not depending on their declared variable,
/// variable count exceeding the manager's).
[[nodiscard]] Bdd loadBdd(std::istream& is, Manager& manager);

}  // namespace stsyn::bdd
