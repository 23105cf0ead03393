#include "symbolic/scc.hpp"

#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace stsyn::symbolic {

using bdd::Bdd;

namespace {

/// One lockstep refinement step: returns the SCC of a pivot state inside V
/// together with the converged search set, growing the forward and backward
/// reachable sets in lockstep so the work is proportional to the smaller of
/// the two (the property that makes the algorithm's symbolic step count
/// linear up to a log factor).
struct Lockstep {
  Bdd scc;        // the pivot's SCC
  Bdd converged;  // the search set that converged first (closed within V)
};

Lockstep lockstep(const ImageEngine& engine, const Bdd& v, const Bdd& pivot,
                  std::size_t& steps) {
  Bdd fwd = pivot;
  Bdd bwd = pivot;
  Bdd fFront = pivot;
  Bdd bFront = pivot;

  while (!fFront.isFalse() && !bFront.isFalse()) {
    fFront = engine.image(fFront, v) & !fwd;
    fwd |= fFront;
    bFront = engine.preimage(bFront, v) & !bwd;
    bwd |= bFront;
    steps += 2;
  }
  if (fFront.isFalse()) {
    // Forward search converged: the pivot's SCC lies inside fwd. Finish the
    // backward search but only within fwd.
    bwd &= fwd;
    bFront &= fwd;
    while (!bFront.isFalse()) {
      bFront = engine.preimage(bFront, fwd) & !bwd;
      bwd |= bFront;
      ++steps;
    }
    return Lockstep{fwd & bwd, fwd};
  }
  fwd &= bwd;
  fFront &= bwd;
  while (!fFront.isFalse()) {
    fFront = engine.image(fFront, bwd) & !fwd;
    fwd |= fFront;
    ++steps;
  }
  return Lockstep{fwd & bwd, bwd};
}

/// Does `scc` contain an internal transition of some part? (Distinguishes
/// a genuine cycle from a trivial single-state component.)
bool hasInternalEdge(const ImageEngine& engine, const Bdd& scc) {
  const Bdd next = engine.sp().onNext(scc);
  for (std::size_t i = 0; i < engine.partCount(); ++i) {
    if (!(engine.part(i) & scc & next).isFalse()) return true;
  }
  return false;
}

/// Trims `domain` to its cycle core: repeatedly drop states with no
/// successor or no predecessor inside the remaining set. Every non-trivial
/// SCC survives, and on cycle-free graphs the core empties out in
/// O(longest chain) rounds. The engine is re-restricted to the shrinking
/// core so each round's operands keep getting smaller.
Bdd trimToCore(const ImageEngine& engine, const Bdd& domain,
               std::size_t& steps) {
  ImageEngine r = engine.restricted(domain);
  Bdd core = domain;
  for (;;) {
    const Bdd keep = core & r.sources() & r.targets();
    steps += 2;
    if (keep == core) return core;
    core = keep;
    if (core.isFalse()) return core;
    r = r.restricted(core);
  }
}

}  // namespace

SccResult nontrivialSccs(const ImageEngine& engine, const Bdd& domain) {
  const SymbolicProtocol& sp = engine.sp();
  obs::Span span("nontrivial_sccs", "scc");
  span.arg("partitioned", engine.partitioned());
  SccResult result;
  const Bdd core = trimToCore(engine, domain, result.symbolicSteps);
  if (!core.isFalse()) {
    std::vector<Bdd> work{core};
    while (!work.empty()) {
      Bdd v = std::move(work.back());
      work.pop_back();
      if (v.isFalse()) continue;
      assert(v.implies(sp.enc().validCur()) &&
             "SCC work set escaped the valid state codes");

      const Bdd pivot = sp.enc().stateBdd(sp.pickState(v));
      const Lockstep ls = lockstep(engine, v, pivot, result.symbolicSteps);

      if (hasInternalEdge(engine, ls.scc)) {
        result.components.push_back(ls.scc);
      }
      // SCCs never straddle the converged set: recurse on both sides.
      work.push_back(ls.converged & !ls.scc);
      work.push_back(v & !ls.converged);
    }
  }
  span.arg("components", result.components.size());
  span.arg("symbolic_steps", result.symbolicSteps);
  return result;
}

SccResult nontrivialSccs(const SymbolicProtocol& sp, const Bdd& rel,
                         const Bdd& domain) {
  return nontrivialSccs(ImageEngine(sp, rel), domain);
}

bool hasCycle(const ImageEngine& engine, const Bdd& domain) {
  obs::Span span("has_cycle", "scc");
  // Self-loops are cycles.
  const Bdd diag = domain & engine.sp().enc().diagonal();
  for (std::size_t i = 0; i < engine.partCount(); ++i) {
    if (!(engine.part(i) & diag).isFalse()) {
      span.arg("cyclic", true);
      return true;
    }
  }
  // Otherwise a cycle exists iff the trimmed core is non-empty.
  std::size_t steps = 0;
  const bool cyclic = !trimToCore(engine, domain, steps).isFalse();
  span.arg("cyclic", cyclic);
  span.arg("symbolic_steps", steps);
  return cyclic;
}

bool hasCycle(const SymbolicProtocol& sp, const Bdd& rel, const Bdd& domain) {
  return hasCycle(ImageEngine(sp, rel), domain);
}

bool certainlyAcyclicIncrement(const ImageEngine& combined, const Bdd& delta,
                               const Bdd& domain, std::size_t* steps) {
  const SymbolicProtocol& sp = combined.sp();
  // Delta self-loops inside the domain are cycles outright.
  if (!(delta & domain & sp.enc().diagonal()).isFalse()) return false;

  const Bdd inDomain = sp.restrictRel(delta, domain);
  if (inDomain.isFalse()) return true;  // delta never re-enters the domain
  const Bdd sources = sp.sources(inDomain);
  const Bdd targets = sp.image(inDomain, domain);

  // BFS of the targets' forward cone under base ∪ delta, bailing out the
  // moment it can touch a delta source (then a closing edge may exist).
  Bdd reach = targets;
  Bdd frontier = targets;
  for (;;) {
    if (!(frontier & sources).isFalse()) return false;  // inconclusive
    frontier = combined.image(frontier, domain) & !reach;
    if (steps != nullptr) ++*steps;
    if (frontier.isFalse()) return true;  // cone closed without meeting them
    reach |= frontier;
  }
}

bool certainlyAcyclicIncrement(const SymbolicProtocol& sp, const Bdd& base,
                               const Bdd& delta, const Bdd& domain,
                               std::size_t* steps) {
  return certainlyAcyclicIncrement(ImageEngine(sp, base | delta), delta,
                                   domain, steps);
}

}  // namespace stsyn::symbolic
