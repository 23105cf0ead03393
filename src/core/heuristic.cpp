#include "core/heuristic.hpp"

#include <optional>
#include <stdexcept>

#include "obs/trace.hpp"
#include "symbolic/scc.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace stsyn::core {

using bdd::Bdd;
using symbolic::ImageEngine;
using symbolic::SymbolicProtocol;

const char* toString(Failure f) {
  switch (f) {
    case Failure::None:
      return "success";
    case Failure::NoStabilizingVersionExists:
      return "no stabilizing version exists (rank-infinity states)";
    case Failure::PreexistingCycleUnremovable:
      return "pre-existing cycle outside I has groupmates inside I";
    case Failure::UnresolvedDeadlocks:
      return "heuristic exhausted all passes with deadlocks remaining";
  }
  return "?";
}

namespace {

/// Mutable synthesis state threaded through the passes. All fixpoints run
/// through ImageEngines over the per-process parts of pss, so the policy
/// decides between monolithic and partitioned products uniformly.
class Synthesizer {
 public:
  Synthesizer(const SymbolicProtocol& sp, const Schedule& schedule,
              SynthesisStats& stats, symbolic::ImagePolicy policy)
      : sp_(sp),
        schedule_(schedule),
        stats_(stats),
        policy_(policy),
        inv_(sp.invariant()),
        notI_(sp.enc().validCur() & !inv_),
        pssProc_(sp.processCount()),
        added_(sp.processCount()) {
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      pssProc_[j] = sp.processRelation(j);
      added_[j] = sp.manager().falseBdd();
    }
    rebuildUnion();
    engine_.emplace(sp_, pssProc_, policy_);
    deadlocks_ = computeDeadlocks();
  }

  [[nodiscard]] const Bdd& pss() const { return pss_; }
  [[nodiscard]] const Bdd& deadlocks() const { return deadlocks_; }
  [[nodiscard]] std::vector<Bdd> added() const { return added_; }

  /// Preprocessing (Section V step 1): handle cycles that p itself already
  /// has outside I. Groups whose members start in I cannot be removed
  /// (that would change delta_p|I) — fail. Other participating groups are
  /// removed; Problem III.1 only freezes delta_pss|I, and the resulting
  /// deadlocks are the passes' job to resolve.
  [[nodiscard]] bool removePreexistingCycles() {
    const symbolic::SccResult sccs = detectSccs(*engine_);
    for (const Bdd& c : sccs.components) {
      const Bdd inC = c & sp_.onNext(c);
      for (std::size_t j = 0; j < sp_.processCount(); ++j) {
        const Bdd part = pssProc_[j] & inC;
        if (part.isFalse()) continue;
        const Bdd group = sp_.groupExpand(j, part) & pssProc_[j];
        if (!(group & inv_).isFalse()) return false;  // groupmate starts in I
        pssProc_[j] = pssProc_[j].minus(group);
      }
    }
    if (!sccs.components.empty()) {
      rebuildUnion();
      engine_.emplace(sp_, pssProc_, policy_);
      deadlocks_ = computeDeadlocks();
    }
    return true;
  }

  /// Does pss restricted to ¬I still contain a cycle? (The already-stable
  /// early exit of addStrongConvergence.)
  [[nodiscard]] bool hasCycleOutsideInvariant() {
    const bool cyclic = symbolic::hasCycle(*engine_, notI_);
    stats_.addEngine(engine_->drainStats());
    return cyclic;
  }

  /// Greedy cycle resolution (the implementation's "pass 4", see
  /// StrongOptions::greedyCycleResolution): for each process in schedule
  /// order, enumerate the C1-allowed groups leaving a remaining deadlock
  /// state and add them one at a time, keeping a group only if the union
  /// stays acyclic outside I. Returns true when no deadlock remains.
  bool greedyResolve() {
    for (std::size_t idx = 0; idx < schedule_.size(); ++idx) {
      const std::size_t j = schedule_[idx];
      if (deadlocks_.isFalse()) return true;
      const Bdd cand = sp_.candidates(j);
      Bdd pool = sp_.groupExpand(j, cand & deadlocks_) & cand;
      pool = pool.minus(sp_.groupExpand(j, pool & inv_));
      while (!pool.isFalse()) {
        util::checkCancellation();
        const Bdd useful = pool & deadlocks_;
        if (useful.isFalse()) break;
        const auto [s0, s1] = sp_.pickTransition(useful);
        const Bdd member = sp_.enc().stateBdd(s0) &
                           sp_.onNext(sp_.enc().stateBdd(s1));
        const Bdd group = sp_.groupExpand(j, member) & cand;
        pool = pool.minus(group);
        bool cyclic;
        {
          obs::AccumSpan timeIt(stats_.sccSeconds, "greedy_cycle_check",
                                "scc");
          const ImageEngine candidate = withGroups(j, group);
          cyclic = !symbolic::certainlyAcyclicIncrement(
                       candidate, group, notI_, &stats_.sccSymbolicSteps) &&
                   symbolic::hasCycle(candidate, notI_);
          stats_.addEngine(candidate.drainStats());
        }
        if (cyclic) continue;
        commit(j, group);
        deadlocks_ = computeDeadlocks();
        if (deadlocks_.isFalse()) return true;
      }
    }
    return deadlocks_.isFalse();
  }

  /// Add_Convergence (Figure 3): one walk over the schedule, adding
  /// recovery from From to To for each process in turn. Returns true when
  /// no deadlock state remains.
  bool addConvergence(const Bdd& from, const Bdd& to, int passNo) {
    obs::Span span("add_convergence", "synthesis");
    span.arg("pass", passNo);
    Bdd ruledOutTargets = passNo == 1 ? deadlocks_ : sp_.manager().falseBdd();
    for (std::size_t idx = 0; idx < schedule_.size(); ++idx) {
      util::checkCancellation();
      const std::size_t j = schedule_[idx];
      addRecovery(j, from, to, ruledOutTargets);
      deadlocks_ = computeDeadlocks();
      if (deadlocks_.isFalse()) return true;
      if (passNo == 1) ruledOutTargets = deadlocks_;  // Fig. 3 line 4
    }
    return false;
  }

 private:
  /// Add_Recovery for process j: include every group of j with a member in
  /// From x To, excluding groups with a member that starts in I (C1) or
  /// reaches a ruled-out target (C4 in pass 1); then discard groups whose
  /// inclusion closes a cycle outside I (C3, Identify_Resolve_Cycles).
  void addRecovery(std::size_t j, const Bdd& from, const Bdd& to,
                   const Bdd& ruledOutTargets) {
    const Bdd cand = sp_.candidates(j);
    const Bdd seed = cand & from & sp_.onNext(to);
    if (seed.isFalse()) return;
    Bdd groups = sp_.groupExpand(j, seed) & cand;

    // ruledOutTrans = { (s0,s1) : s0 in I or s1 ruled out }.
    const Bdd ruledOut =
        groups & (inv_ | sp_.onNext(ruledOutTargets));
    groups = groups.minus(sp_.groupExpand(j, ruledOut));
    if (groups.isFalse()) return;

    // Identify_Resolve_Cycles: SCCs of (pss ∪ groups)|¬I; every group with
    // a transition inside a component is discarded. The incremental
    // fast path skips detection when the batch provably closes no cycle
    // (pss|¬I is acyclic by construction throughout the passes).
    const ImageEngine candidate = withGroups(j, groups);
    {
      obs::AccumSpan timeIt(stats_.sccSeconds, "acyclic_increment", "scc");
      const bool acyclic = symbolic::certainlyAcyclicIncrement(
          candidate, groups, notI_, &stats_.sccSymbolicSteps);
      stats_.addEngine(candidate.drainStats());
      if (acyclic) {
        stats_.sccFastPathHits += 1;
        commit(j, groups);
        return;
      }
    }
    const symbolic::SccResult sccs = detectSccs(candidate);
    for (const Bdd& c : sccs.components) {
      const Bdd bad = groups & c & sp_.onNext(c);
      if (!bad.isFalse()) groups = groups.minus(sp_.groupExpand(j, bad));
    }
    if (groups.isFalse()) return;

    commit(j, groups);
  }

  /// A candidate engine: pss with `groups` merged into process j's part.
  [[nodiscard]] ImageEngine withGroups(std::size_t j, const Bdd& groups) {
    ImageEngine candidate = *engine_;
    candidate.growPart(j, groups);
    return candidate;
  }

  /// Adds an accepted batch to process j and the union/engine views.
  void commit(std::size_t j, const Bdd& groups) {
    added_[j] |= groups;
    pssProc_[j] |= groups;
    pss_ |= groups;
    engine_->growPart(j, groups);
  }

  /// Deadlocks of the current pss — valid ¬I states with no successor,
  /// computed per part so the source scans stay local.
  [[nodiscard]] Bdd computeDeadlocks() {
    const Bdd d = sp_.enc().validCur() & !inv_ & !engine_->sources();
    stats_.addEngine(engine_->drainStats());
    return d;
  }

  [[nodiscard]] symbolic::SccResult detectSccs(const ImageEngine& engine) {
    obs::AccumSpan timeIt(stats_.sccSeconds, "scc_detect", "scc");
    symbolic::SccResult r = symbolic::nontrivialSccs(engine, notI_);
    stats_.addEngine(engine.drainStats());
    timeIt.span().arg("components", r.components.size());
    timeIt.span().arg("symbolic_steps", r.symbolicSteps);
    stats_.sccDetectionCalls += 1;
    stats_.sccComponentsFound += r.components.size();
    stats_.sccSymbolicSteps += r.symbolicSteps;
    for (const Bdd& c : r.components) stats_.sccNodesTotal += c.nodeCount();
    return r;
  }

  void rebuildUnion() {
    pss_ = sp_.manager().falseBdd();
    for (const Bdd& r : pssProc_) pss_ |= r;
  }

  const SymbolicProtocol& sp_;
  const Schedule& schedule_;
  SynthesisStats& stats_;
  symbolic::ImagePolicy policy_;
  Bdd inv_;
  Bdd notI_;
  std::vector<Bdd> pssProc_;
  std::vector<Bdd> added_;
  Bdd pss_;
  Bdd deadlocks_;
  std::optional<ImageEngine> engine_;  ///< engine over pssProc_
};

}  // namespace

StrongResult addStrongConvergence(const SymbolicProtocol& sp,
                                  const StrongOptions& options) {
  StrongResult out;
  util::Stopwatch total;
  obs::Span synthSpan("add_strong_convergence", "synthesis");
  synthSpan.arg("image_policy", symbolic::toString(options.imagePolicy));

  Schedule schedule = options.schedule.empty()
                          ? identitySchedule(sp.processCount())
                          : options.schedule;
  if (!isValidSchedule(schedule, sp.processCount())) {
    throw std::invalid_argument("addStrongConvergence: schedule is not a "
                                "permutation of the processes");
  }
  if (options.maxPass < 1 || options.maxPass > 3) {
    throw std::invalid_argument("addStrongConvergence: maxPass must be 1..3");
  }

  out.stats.imagePolicy = symbolic::toString(options.imagePolicy);
  out.stats.varOrder = symbolic::toString(sp.enc().varOrder());

  // Preprocessing: ranking approximation (Section IV). Rank-infinity states
  // refute the existence of any stabilizing version (Theorem IV.1).
  out.ranking = computeRanks(sp, &out.stats, options.imagePolicy);

  Synthesizer syn(sp, schedule, out.stats, options.imagePolicy);

  auto finish = [&](bool success, Failure failure) {
    out.success = success;
    out.failure = failure;
    out.relation = syn.pss();
    out.addedPerProcess = syn.added();
    out.remainingDeadlocks = syn.deadlocks();
    out.stats.totalSeconds += total.seconds();
    out.stats.programNodes = out.relation.nodeCount();
    const bdd::ManagerStats& ms = sp.manager().stats();
    out.stats.peakLiveNodes = ms.peakLiveNodes;
    out.stats.peakReachableNodes = ms.peakReachableNodes;
    out.stats.reorderRuns = ms.reorderRuns;
    out.stats.reorderSeconds = ms.reorderSeconds;
    out.stats.reorderNodesSaved = ms.reorderNodesBefore - ms.reorderNodesAfter;
    out.stats.gcRuns = ms.gcRuns;
    out.stats.cacheLookups = ms.cacheLookups;
    out.stats.cacheHits = ms.cacheHits;
    out.stats.cacheStores = ms.cacheStores;
    out.stats.uniqueProbes = ms.uniqueProbes;
    synthSpan.arg("success", success);
    synthSpan.arg("pass", out.stats.passCompleted);
    synthSpan.arg("program_nodes", out.stats.programNodes);
    return out;
  };

  if (!out.ranking.complete()) {
    return finish(false, Failure::NoStabilizingVersionExists);
  }
  if (!syn.removePreexistingCycles()) {
    return finish(false, Failure::PreexistingCycleUnremovable);
  }
  if (syn.deadlocks().isFalse() && !syn.hasCycleOutsideInvariant()) {
    // Already strongly converging (e.g. re-running on a stabilizing input).
    out.stats.passCompleted = 0;
    return finish(true, Failure::None);
  }

  const std::size_t M = out.ranking.maxRank();
  static constexpr const char* kPassNames[] = {"pass1", "pass2", "pass3"};
  for (int pass = 1; pass <= options.maxPass; ++pass) {
    obs::Span passSpan(kPassNames[pass - 1], "synthesis");
    out.stats.passCompleted = pass;
    if (pass <= 2) {
      for (std::size_t i = 1; i <= M; ++i) {
        const Bdd from = out.ranking.ranks[i] & syn.deadlocks();
        const Bdd to = out.ranking.ranks[i - 1];
        if (from.isFalse()) continue;
        if (syn.addConvergence(from, to, pass)) {
          return finish(true, Failure::None);
        }
      }
    } else {
      const Bdd from = syn.deadlocks();
      const Bdd to = sp.enc().validCur();
      if (syn.addConvergence(from, to, pass)) {
        return finish(true, Failure::None);
      }
    }
    if (syn.deadlocks().isFalse()) return finish(true, Failure::None);
  }
  if (options.greedyCycleResolution && options.maxPass == 3) {
    obs::Span passSpan("pass4_greedy", "synthesis");
    out.stats.passCompleted = 4;
    if (syn.greedyResolve()) return finish(true, Failure::None);
  }
  return finish(false, Failure::UnresolvedDeadlocks);
}

}  // namespace stsyn::core
