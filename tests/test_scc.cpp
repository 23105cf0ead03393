// Tests for symbolic SCC detection (lockstep with cycle-core trimming),
// cross-checked against explicit Tarjan on whole protocols and on random
// relations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "protocol/builder.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "explicitstate/graph.hpp"
#include "symbolic/decode.hpp"
#include "symbolic/scc.hpp"
#include "util/rng.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using symbolic::Encoding;
using symbolic::SymbolicProtocol;

/// Canonical form of an SCC partition: sorted list of sorted state lists.
std::vector<std::vector<std::uint64_t>> canonical(
    const Encoding& enc, const std::vector<Bdd>& components) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const Bdd& c : components) out.push_back(symbolic::decodeStates(enc, c));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<std::uint64_t>> canonicalExplicit(
    std::vector<std::vector<explicitstate::StateId>> components) {
  std::vector<std::vector<std::uint64_t>> out;
  for (auto& c : components) out.emplace_back(c.begin(), c.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Builds a symbolic relation from explicit edges.
Bdd relationOf(const Encoding& enc, const SymbolicProtocol& sp,
               std::span<const std::pair<std::uint64_t, std::uint64_t>> edges) {
  Bdd rel = enc.manager().falseBdd();
  for (const auto& [from, to] : edges) {
    rel |= enc.stateBdd(symbolic::unpackState(enc.proto(), from)) &
           sp.onNext(enc.stateBdd(symbolic::unpackState(enc.proto(), to)));
  }
  return rel;
}

protocol::Protocol counterProtocol(int n) {
  protocol::ProtocolBuilder b("counter");
  const protocol::VarId x = b.variable("x", n);
  b.process("P", {x}, {x});
  b.invariant(protocol::blit(false));  // whole space is "outside I"
  return b.build();
}

TEST(SymbolicScc, HandBuiltComponents) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 6}, {6, 5}, {7, 7}};
  const Bdd rel = relationOf(enc, sp, edges);
  const auto result = symbolic::nontrivialSccs(sp, rel, enc.validCur());
  EXPECT_EQ(canonical(enc, result.components),
            (std::vector<std::vector<std::uint64_t>>{
                {1, 2, 3}, {5, 6}, {7}}));
  EXPECT_TRUE(symbolic::hasCycle(sp, rel, enc.validCur()));
}

TEST(SymbolicScc, AcyclicGraphHasNoComponents) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}, {4, 7}};
  const Bdd rel = relationOf(enc, sp, edges);
  EXPECT_TRUE(symbolic::nontrivialSccs(sp, rel, enc.validCur())
                  .components.empty());
  EXPECT_FALSE(symbolic::hasCycle(sp, rel, enc.validCur()));
}

TEST(SymbolicScc, DomainRestrictionBreaksCycles) {
  const protocol::Protocol p = counterProtocol(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 0}, {2, 3}, {3, 2}};
  const Bdd rel = relationOf(enc, sp, edges);
  const Bdd domain =
      enc.validCur() & !enc.stateBdd(std::vector<int>{1});  // drop state 1
  const auto result = symbolic::nontrivialSccs(sp, rel, domain);
  EXPECT_EQ(canonical(enc, result.components),
            (std::vector<std::vector<std::uint64_t>>{{2, 3}}));
}

class SymbolicSccRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicSccRandom, AgreesWithTarjanOnRandomGraphs) {
  const int n = 24;
  const protocol::Protocol p = counterProtocol(n);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);

  util::Rng rng(GetParam());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  const std::size_t edgeCount = 30 + rng.below(40);
  for (std::size_t i = 0; i < edgeCount; ++i) {
    edges.emplace_back(rng.below(n), rng.below(n));
  }

  const Bdd rel = relationOf(enc, sp, edges);
  const auto symbolicSccs =
      canonical(enc, symbolic::nontrivialSccs(sp, rel, enc.validCur()).components);

  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      explicitEdges(edges.begin(), edges.end());
  const auto ts = explicitstate::fromEdges(space, explicitEdges);
  const std::vector<bool> all(n, true);
  const auto tarjanSccs =
      canonicalExplicit(explicitstate::nontrivialSccs(ts, all));

  EXPECT_EQ(symbolicSccs, tarjanSccs) << "seed " << GetParam();
  EXPECT_EQ(symbolic::hasCycle(sp, rel, enc.validCur()),
            !tarjanSccs.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicSccRandom,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(SymbolicScc, MatchingRecoveryCyclesMatchTarjan) {
  // A realistic relation: the weakest candidate recovery relation of the
  // matching protocol restricted to ¬I — the exact graph the heuristic
  // feeds to Identify_Resolve_Cycles.
  const protocol::Protocol p = casestudies::matching(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  Bdd rel = enc.manager().falseBdd();
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    const Bdd all = sp.candidates(j);
    rel |= all & !sp.groupExpand(j, all & sp.invariant());
  }
  const Bdd notI = enc.validCur() & !sp.invariant();
  rel = sp.restrictRel(rel, notI);

  const auto symbolicSccs =
      canonical(enc, symbolic::nontrivialSccs(sp, rel, notI).components);

  const explicitstate::StateSpace space(p);
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>> edges;
  for (const auto& [from, to] : symbolic::decodeRelation(enc, rel)) {
    edges.emplace_back(from, to);
  }
  const auto ts = explicitstate::fromEdges(space, edges);
  std::vector<bool> domain(space.size());
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    domain[s] = !space.inInvariant(s);
  }
  EXPECT_EQ(symbolicSccs,
            canonicalExplicit(explicitstate::nontrivialSccs(ts, domain)));
  EXPECT_FALSE(symbolicSccs.empty());  // matching genuinely has cycles
}

TEST(SymbolicScc, TokenRingPaperCycleIsFound) {
  // Section IV: adding the recovery action x1 = x0+1 -> x1 := x0-1 to the
  // TR protocol creates a non-progress cycle through <1,2,1,0>.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);

  // recovery action of P1 (group-closed by construction: reads x0, x1)
  Bdd recovery = enc.manager().falseBdd();
  for (int x0 = 0; x0 < 3; ++x0) {
    const int x1 = (x0 + 1) % 3;
    const int target = (x0 + 2) % 3;  // x0 - 1 mod 3
    recovery |= enc.curValue(0, x0) & enc.curValue(1, x1) &
                enc.nextValue(1, target) & enc.unchanged(0) &
                enc.unchanged(2) & enc.unchanged(3);
  }
  const Bdd rel = sp.protocolRelation() | (recovery & enc.validCur());
  const Bdd notI = enc.validCur() & !sp.invariant();
  const auto result =
      symbolic::nontrivialSccs(sp, sp.restrictRel(rel, notI), notI);
  ASSERT_FALSE(result.components.empty());
  const Bdd paperState = enc.stateBdd(std::vector<int>{1, 2, 1, 0});
  bool found = false;
  for (const Bdd& c : result.components) {
    if (!(c & paperState).isFalse()) found = true;
  }
  EXPECT_TRUE(found) << "paper's cycle state <1,2,1,0> not in any SCC";
}

TEST(SkeletonScc, MatchingRecoveryGraphAgrees) {
  // matching(5)'s weakest candidate recovery graph over ¬I: the lockstep
  // routine, monolithic and per-process, must find Tarjan's components.
  const protocol::Protocol p = casestudies::matching(5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  Bdd rel = enc.manager().falseBdd();
  std::vector<Bdd> parts;
  const Bdd notI = enc.validCur() & !sp.invariant();
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    const Bdd all = sp.candidates(j);
    parts.push_back(
        sp.restrictRel(all & !sp.groupExpand(j, all & sp.invariant()), notI));
    rel |= parts.back();
  }
  const auto lockstep =
      canonical(enc, symbolic::nontrivialSccs(sp, rel, notI).components);
  const symbolic::ImageEngine engine(sp, parts,
                                     symbolic::ImagePolicy::PerProcess);
  EXPECT_EQ(lockstep,
            canonical(enc, symbolic::nontrivialSccs(engine, notI).components));

  const explicitstate::StateSpace space(p);
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>> edges;
  for (const auto& [from, to] : symbolic::decodeRelation(enc, rel)) {
    edges.emplace_back(from, to);
  }
  const auto ts = explicitstate::fromEdges(space, edges);
  std::vector<bool> domain(space.size());
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    domain[s] = !space.inInvariant(s);
  }
  EXPECT_EQ(lockstep,
            canonicalExplicit(explicitstate::nontrivialSccs(ts, domain)));
  EXPECT_FALSE(lockstep.empty());
}

TEST(SkeletonScc, EmptyAndAcyclicDomains) {
  // Degenerate inputs: an empty relation, an empty domain around a cycle,
  // and a domain that keeps only the acyclic tail of the graph.
  const protocol::Protocol p = counterProtocol(6);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}};
  const Bdd rel = relationOf(enc, sp, edges);
  const Bdd none = enc.manager().falseBdd();
  EXPECT_TRUE(
      symbolic::nontrivialSccs(sp, none, enc.validCur()).components.empty());
  EXPECT_FALSE(symbolic::hasCycle(sp, none, enc.validCur()));
  EXPECT_TRUE(symbolic::nontrivialSccs(sp, rel, none).components.empty());
  EXPECT_FALSE(symbolic::hasCycle(sp, rel, none));
  const Bdd tail = enc.validCur() & !enc.stateBdd(std::vector<int>{0});
  EXPECT_TRUE(symbolic::nontrivialSccs(sp, rel, tail).components.empty());
  EXPECT_FALSE(symbolic::hasCycle(sp, rel, tail));
  // The full domain still sees the 0 <-> 1 cycle.
  EXPECT_EQ(canonical(enc, symbolic::nontrivialSccs(sp, rel, enc.validCur())
                               .components),
            (std::vector<std::vector<std::uint64_t>>{{0, 1}}));
}

TEST(PartitionedScc, AgreesWithMonolithic) {
  const protocol::Protocol p = casestudies::matching(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  Bdd rel = enc.manager().falseBdd();
  std::vector<Bdd> parts;
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    const Bdd all = sp.candidates(j);
    const Bdd part = all & !sp.groupExpand(j, all & sp.invariant());
    parts.push_back(part);
    rel |= part;
  }
  const Bdd notI = enc.validCur() & !sp.invariant();
  const auto mono = canonical(
      enc, symbolic::nontrivialSccs(sp, sp.restrictRel(rel, notI), notI)
               .components);
  const symbolic::ImageEngine engine(sp, parts,
                                     symbolic::ImagePolicy::PerProcess);
  ASSERT_TRUE(engine.partitioned());
  const auto part =
      canonical(enc, symbolic::nontrivialSccs(engine, notI).components);
  EXPECT_EQ(mono, part);
  EXPECT_EQ(symbolic::hasCycle(sp, rel, notI),
            symbolic::hasCycle(engine, notI));
}

/// The increment cone of `delta` over a monolithic engine holding
/// base ∪ delta.
symbolic::IncrementCone coneOf(const SymbolicProtocol& sp, const Bdd& base,
                               const Bdd& delta, const Bdd& domain) {
  return symbolic::incrementCone(symbolic::ImageEngine(sp, base | delta),
                                 delta, domain);
}

/// The counter states in `states`, as a BDD.
Bdd statesOf(const Encoding& enc, std::initializer_list<int> states) {
  Bdd out = enc.manager().falseBdd();
  for (const int s : states) out |= enc.stateBdd(std::vector<int>{s});
  return out;
}

TEST(IncrementalAcyclicity, CertainlyAcyclicWhenConeStaysClear) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  // base: 0 -> 1 -> 2 (acyclic); delta: 2 -> 3. Cone of {3} never meets
  // delta source {2}.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges{
      {0, 1}, {1, 2}};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges{
      {2, 3}};
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  const symbolic::IncrementCone cone =
      coneOf(sp, base, delta, enc.validCur());
  EXPECT_TRUE(cone.empty());
  EXPECT_TRUE(cone.sources.isFalse());
}

TEST(IncrementalAcyclicity, InconclusiveWhenDeltaClosesACycle) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges{
      {1, 2}, {2, 3}};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges{
      {3, 1}};
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  const symbolic::IncrementCone cone =
      coneOf(sp, base, delta, enc.validCur());
  // The cone is exactly the closed cycle, seeded from the closing source.
  EXPECT_EQ(cone.states, statesOf(enc, {1, 2, 3}));
  EXPECT_EQ(cone.sources, statesOf(enc, {3}));
  // And the full check agrees there IS a cycle.
  EXPECT_TRUE(symbolic::hasCycle(sp, base | delta, enc.validCur()));
  const symbolic::ImageEngine engine(sp, base | delta);
  EXPECT_EQ(canonical(enc, symbolic::nontrivialSccs(engine, cone.states,
                                                    cone.sources)
                               .components),
            (std::vector<std::vector<std::uint64_t>>{{1, 2, 3}}));
}

TEST(IncrementalAcyclicity, ConservativeOnNearMisses) {
  // delta target reaches a delta source but the closing edge goes
  // elsewhere: the cone is non-empty (the fast path cannot rule a cycle
  // out), and detection inside it confirms acyclicity — i.e. the cone
  // errs only on the safe side.
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges{
      {1, 2}, {2, 3}};
  // two delta edges: 0 -> 1 and 3 -> 4: cone of {1,4} reaches source 3
  // (via 1->2->3) but 3's edge goes to 4, closing nothing.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges{
      {0, 1}, {3, 4}};
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  const symbolic::IncrementCone cone =
      coneOf(sp, base, delta, enc.validCur());
  // F = {1,2,3,4}; source 0 lies outside F; B within F from {3} = {1,2,3}.
  EXPECT_EQ(cone.states, statesOf(enc, {1, 2, 3}));
  EXPECT_EQ(cone.sources, statesOf(enc, {3}));
  const symbolic::ImageEngine engine(sp, base | delta);
  EXPECT_TRUE(
      symbolic::nontrivialSccs(engine, cone.states, cone.sources)
          .components.empty());
  EXPECT_FALSE(symbolic::hasCycle(engine, cone.states));
  EXPECT_FALSE(symbolic::hasCycle(sp, base | delta, enc.validCur()));
}

TEST(IncrementalAcyclicity, SelfLoopDeltaAndOutOfDomainDelta) {
  const protocol::Protocol p = counterProtocol(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd base = enc.manager().falseBdd();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> loop{{2, 2}};
  const Bdd selfLoop = relationOf(enc, sp, loop);
  const symbolic::IncrementCone cone =
      coneOf(sp, base, selfLoop, enc.validCur());
  EXPECT_EQ(cone.states, statesOf(enc, {2}));
  EXPECT_EQ(cone.sources, statesOf(enc, {2}));
  // Same delta, but the domain excludes state 2: the loop is irrelevant.
  const Bdd domain = enc.validCur() & !enc.stateBdd(std::vector<int>{2});
  EXPECT_TRUE(coneOf(sp, base, selfLoop, domain).empty());
}

/// Explicit forward closure of `from` inside `domain`.
std::vector<bool> closure(
    const std::vector<std::vector<std::uint64_t>>& succ,
    const std::vector<bool>& domain, std::vector<bool> from) {
  std::vector<std::uint64_t> stack;
  for (std::uint64_t s = 0; s < from.size(); ++s) {
    if (from[s]) stack.push_back(s);
  }
  while (!stack.empty()) {
    const std::uint64_t s = stack.back();
    stack.pop_back();
    for (const std::uint64_t t : succ[s]) {
      if (domain[t] && !from[t]) {
        from[t] = true;
        stack.push_back(t);
      }
    }
  }
  return from;
}

Bdd statesWhere(const Encoding& enc, const std::vector<bool>& member) {
  Bdd out = enc.manager().falseBdd();
  for (std::size_t s = 0; s < member.size(); ++s) {
    if (member[s]) out |= enc.stateBdd(std::vector<int>{static_cast<int>(s)});
  }
  return out;
}

class IncrementConeRandom : public ::testing::TestWithParam<std::uint64_t> {};

// Random acyclic base plus a random batch, against explicit oracles: the
// cone equals the explicit F ∩ B, an empty cone means Tarjan finds no
// cycle (the converse fails on near misses), and seeded detection inside
// it finds exactly Tarjan's nontrivial SCCs of the whole domain. Seeds cycle through four batch
// shapes: arbitrary edges, edges plus an in-domain self-loop, edges that
// all leave the domain, and edges against the base's topological order.
TEST_P(IncrementConeRandom, ConeSccsEqualTarjanOnTheWholeDomain) {
  const int n = 24;
  const protocol::Protocol p = counterProtocol(n);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  util::Rng rng(GetParam());

  const std::vector<std::size_t> topo = rng.permutation(n);
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < topo.size(); ++i) rank[topo[i]] = i;
  std::vector<bool> domain(n, true);
  for (int i = 0; i < 4; ++i) domain[rng.below(n)] = false;

  using Edges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  Edges baseEdges;
  const std::size_t baseCount = 20 + rng.below(30);
  for (std::size_t i = 0; i < baseCount; ++i) {
    std::uint64_t a = rng.below(n);
    std::uint64_t b = rng.below(n);
    if (a == b) continue;
    if (rank[a] > rank[b]) std::swap(a, b);
    baseEdges.emplace_back(a, b);
  }
  std::vector<std::uint64_t> inside;
  std::vector<std::uint64_t> outside;
  for (std::uint64_t s = 0; s < static_cast<std::uint64_t>(n); ++s) {
    (domain[s] ? inside : outside).push_back(s);
  }
  ASSERT_FALSE(outside.empty());
  const std::uint64_t shape = GetParam() % 4;
  Edges deltaEdges;
  const std::size_t deltaCount = 1 + rng.below(6);
  for (std::size_t i = 0; i < deltaCount; ++i) {
    std::uint64_t a = inside[rng.below(inside.size())];
    std::uint64_t b = rng.below(n);
    if (shape == 2) b = outside[rng.below(outside.size())];
    if (shape == 3 && rank[a] < rank[b]) std::swap(a, b);
    deltaEdges.emplace_back(a, b);
  }
  if (shape == 1) {
    const std::uint64_t s = inside[rng.below(inside.size())];
    deltaEdges.emplace_back(s, s);
  }

  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  const Bdd domainBdd = statesWhere(enc, domain);
  const symbolic::ImageEngine engine(sp, base | delta);
  const symbolic::IncrementCone cone =
      symbolic::incrementCone(engine, delta, domainBdd);

  // Explicit F ∩ B.
  Edges all = baseEdges;
  all.insert(all.end(), deltaEdges.begin(), deltaEdges.end());
  std::vector<std::vector<std::uint64_t>> succ(n);
  std::vector<std::vector<std::uint64_t>> pred(n);
  std::vector<bool> targets(n, false);
  std::vector<bool> sources(n, false);
  for (const auto& [a, b] : all) {
    succ[a].push_back(b);
    pred[b].push_back(a);
  }
  for (const auto& [a, b] : deltaEdges) {
    if (domain[a] && domain[b]) targets[b] = sources[a] = true;
  }
  const std::vector<bool> f = closure(succ, domain, targets);
  std::vector<bool> seeds(n, false);
  bool meets = false;
  for (int s = 0; s < n; ++s) {
    seeds[s] = f[s] && sources[s];
    meets = meets || seeds[s];
  }
  const std::vector<bool> fb = closure(pred, f, seeds);
  if (meets) {
    EXPECT_EQ(cone.states, statesWhere(enc, fb));
    EXPECT_EQ(cone.sources, statesWhere(enc, seeds));
  } else {
    EXPECT_TRUE(cone.empty());
  }
  if (shape == 1) {
    EXPECT_FALSE(cone.empty());
  }
  if (shape == 2) {
    EXPECT_TRUE(cone.empty());
  }

  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      explicitEdges(all.begin(), all.end());
  const auto ts = explicitstate::fromEdges(space, explicitEdges);
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      explicitBase(baseEdges.begin(), baseEdges.end());
  ASSERT_TRUE(explicitstate::nontrivialSccs(
                  explicitstate::fromEdges(space, explicitBase), domain)
                  .empty());
  const auto tarjan =
      canonicalExplicit(explicitstate::nontrivialSccs(ts, domain));
  if (cone.empty()) {
    EXPECT_TRUE(tarjan.empty());
  }
  EXPECT_EQ(canonical(enc, symbolic::nontrivialSccs(engine, cone.states,
                                                    cone.sources)
                               .components),
            tarjan)
      << "seed " << GetParam();
  EXPECT_EQ(canonical(enc,
                      symbolic::nontrivialSccs(engine, domainBdd).components),
            tarjan);
  EXPECT_EQ(!cone.empty() && symbolic::hasCycle(engine, cone.states),
            !tarjan.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementConeRandom,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
