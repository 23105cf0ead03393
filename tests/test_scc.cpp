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
  EXPECT_TRUE(
      symbolic::certainlyAcyclicIncrement(sp, base, delta, enc.validCur()));
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
  EXPECT_FALSE(
      symbolic::certainlyAcyclicIncrement(sp, base, delta, enc.validCur()));
  // And the full check agrees there IS a cycle.
  EXPECT_TRUE(symbolic::hasCycle(sp, base | delta, enc.validCur()));
}

TEST(IncrementalAcyclicity, ConservativeOnNearMisses) {
  // delta target reaches a delta source but the closing edge goes
  // elsewhere: the quick test must say "inconclusive" (false), and the
  // full check must confirm acyclicity — i.e. the test errs only on the
  // safe side.
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
  EXPECT_FALSE(
      symbolic::certainlyAcyclicIncrement(sp, base, delta, enc.validCur()));
  EXPECT_FALSE(symbolic::hasCycle(sp, base | delta, enc.validCur()));
}

TEST(IncrementalAcyclicity, SelfLoopDeltaAndOutOfDomainDelta) {
  const protocol::Protocol p = counterProtocol(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd base = enc.manager().falseBdd();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> loop{{2, 2}};
  const Bdd selfLoop = relationOf(enc, sp, loop);
  EXPECT_FALSE(
      symbolic::certainlyAcyclicIncrement(sp, base, selfLoop, enc.validCur()));
  // Same delta, but the domain excludes state 2: the loop is irrelevant.
  const Bdd domain = enc.validCur() & !enc.stateBdd(std::vector<int>{2});
  EXPECT_TRUE(symbolic::certainlyAcyclicIncrement(sp, base, selfLoop, domain));
}

}  // namespace
