// Tests for the three-pass strong-convergence heuristic (paper Section V):
// soundness (every success is verified strongly stabilizing, inside and
// outside I), the Problem III.1 output constraints, pass behaviour,
// schedules, and failure modes.
#include <gtest/gtest.h>

#include "protocol/builder.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "explicitstate/verify.hpp"
#include "symbolic/decode.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using core::addStrongConvergence;
using core::StrongOptions;
using core::StrongResult;
using symbolic::Encoding;
using symbolic::SymbolicProtocol;

/// Soundness oracle: decodes the result and re-verifies it explicitly with
/// the independent engine (no shared code with the synthesizer).
void verifyExplicitly(const protocol::Protocol& p, const Encoding& enc,
                      const Bdd& relation) {
  const explicitstate::StateSpace space(p);
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      edges;
  for (const auto& [from, to] : symbolic::decodeRelation(enc, relation)) {
    edges.emplace_back(from, to);
  }
  const auto ts = explicitstate::fromEdges(space, edges);
  const auto report = explicitstate::check(space, ts);
  EXPECT_TRUE(report.closed);
  EXPECT_TRUE(report.deadlockFree);
  EXPECT_TRUE(report.cycleFree);
  EXPECT_TRUE(report.stronglyStabilizing());
}

TEST(Heuristic, TokenRingSynthesisIsSoundAndVerified) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  StrongOptions opt;
  opt.schedule = core::rotatedSchedule(4, 1);  // paper's (P1,P2,P3,P0)
  const StrongResult r = addStrongConvergence(sp, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.failure, core::Failure::None);
  EXPECT_TRUE(r.remainingDeadlocks.isFalse());

  // Problem III.1 output constraints.
  EXPECT_TRUE(verify::agreesInsideInvariant(sp, sp.protocolRelation(),
                                            r.relation));
  const verify::Report rep = verify::check(sp, r.relation);
  EXPECT_TRUE(rep.stronglyStabilizing());
  verifyExplicitly(p, enc, r.relation);
}

TEST(Heuristic, TokenRingPassOneAddsNothingPassTwoSolves) {
  // Section V's narrative: "We could not add any recovery transitions in
  // the first phase... In the second phase, we add the recovery action".
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  StrongOptions opt;
  opt.schedule = core::rotatedSchedule(4, 1);

  opt.maxPass = 1;
  const StrongResult r1 = addStrongConvergence(sp, opt);
  EXPECT_FALSE(r1.success);
  EXPECT_EQ(r1.failure, core::Failure::UnresolvedDeadlocks);
  for (const Bdd& added : r1.addedPerProcess) {
    EXPECT_TRUE(added.isFalse());  // pass 1 adds nothing on this input
  }

  opt.maxPass = 2;
  const StrongResult r2 = addStrongConvergence(sp, opt);
  EXPECT_TRUE(r2.success);
  EXPECT_EQ(r2.stats.passCompleted, 2);
}

TEST(Heuristic, AddedTransitionsRespectConstraintC1) {
  const protocol::Protocol p = casestudies::matching(5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  ASSERT_TRUE(r.success);
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    const Bdd& added = r.addedPerProcess[j];
    // No added transition, nor any of its groupmates, starts in I.
    EXPECT_TRUE((sp.groupExpand(j, added) & sp.invariant()).isFalse());
    // Whole groups only: expansion adds nothing new.
    EXPECT_TRUE(sp.groupExpand(j, added) == added);
    // Frame respected: only process-j-writable variables change.
    EXPECT_TRUE(added.implies(sp.frame(j)));
    // No self-loops.
    EXPECT_TRUE((added & enc.diagonal()).isFalse());
  }
}

TEST(Heuristic, ResultRelationIsUnionOfInputAndAdded) {
  const protocol::Protocol p = casestudies::coloring(5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  ASSERT_TRUE(r.success);
  Bdd expected = sp.protocolRelation();
  for (const Bdd& added : r.addedPerProcess) expected |= added;
  EXPECT_TRUE(r.relation == expected);
}

TEST(Heuristic, AlreadyStabilizingInputReturnsImmediately) {
  const protocol::Protocol p = casestudies::dijkstraTokenRing(4, 4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.passCompleted, 0);  // no pass needed
  EXPECT_TRUE(r.relation == sp.protocolRelation());
}

TEST(Heuristic, UnrealizableInputFailsWithRankInfinity) {
  protocol::ProtocolBuilder b("stuck");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  b.process("P0", {x0, x1}, {x0});
  b.invariant(protocol::ref(x1) == protocol::lit(0));
  const protocol::Protocol p = b.build();
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, core::Failure::NoStabilizingVersionExists);
}

TEST(Heuristic, PreexistingRemovableCycleIsRemoved) {
  // P0 spins x0 0 -> 1 -> 0 outside I while x1 = 1; I = (x1 == 0). The
  // cycle's groups have no members in I (their guards pin x1 = 1), so
  // preprocessing may remove them, after which recovery must still fix x1.
  protocol::ProtocolBuilder b("spin");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  const std::size_t p0 = b.process("P0", {x0, x1}, {x0});
  b.process("P1", {x0, x1}, {x1});
  using protocol::lit;
  using protocol::ref;
  b.action(p0, "spinUp", ref(x1) == lit(1) && ref(x0) == lit(0),
           {{x0, lit(1)}});
  b.action(p0, "spinDown", ref(x1) == lit(1) && ref(x0) == lit(1),
           {{x0, lit(0)}});
  b.invariant(ref(x1) == lit(0));
  const protocol::Protocol p = b.build();

  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  ASSERT_TRUE(r.success) << core::toString(r.failure);
  const verify::Report rep = verify::check(sp, r.relation);
  EXPECT_TRUE(rep.stronglyStabilizing());
  // The spin transitions are gone (they were a non-progress cycle).
  const Bdd spin = sp.processRelation(0);
  EXPECT_TRUE((r.relation & spin).isFalse());
}

TEST(Heuristic, PreexistingCycleLockedByGroupmatesInIFails) {
  // Same spin cycle, but now P0 cannot read x1, so the spin groups extend
  // into I and can be neither removed (changes delta_p|I) nor kept (cycle).
  protocol::ProtocolBuilder b("locked-spin");
  const protocol::VarId x0 = b.variable("x0", 2);
  const protocol::VarId x1 = b.variable("x1", 2);
  const std::size_t p0 = b.process("P0", {x0}, {x0});
  b.process("P1", {x0, x1}, {x1});
  using protocol::lit;
  using protocol::ref;
  b.action(p0, "spinUp", ref(x0) == lit(0), {{x0, lit(1)}});
  b.action(p0, "spinDown", ref(x0) == lit(1), {{x0, lit(0)}});
  b.invariant(ref(x1) == lit(0));
  const protocol::Protocol p = b.build();

  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, core::Failure::PreexistingCycleUnremovable);
}

TEST(Heuristic, InvalidOptionsRejected) {
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  StrongOptions opt;
  opt.schedule = {0, 0, 1};  // not a permutation
  EXPECT_THROW((void)addStrongConvergence(sp, opt), std::invalid_argument);
  opt.schedule.clear();
  opt.maxPass = 4;
  EXPECT_THROW((void)addStrongConvergence(sp, opt), std::invalid_argument);
}

TEST(Heuristic, GreedyPassResolvesWhatBatchRemovalCannot) {
  // TR(5,5) is the paper-claimed scale where the published three passes
  // alone get stuck: the batch-level Identify_Resolve_Cycles removes every
  // candidate group of one big SCC even though adding a subset is fine.
  // The greedy pass ("pass 4") recovers it; disabling the pass reproduces
  // the published heuristic's failure.
  const protocol::Protocol p = casestudies::tokenRing(5, 5);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);

  StrongOptions published;
  published.greedyCycleResolution = false;
  const StrongResult r1 = addStrongConvergence(sp, published);
  EXPECT_FALSE(r1.success);
  EXPECT_EQ(r1.failure, core::Failure::UnresolvedDeadlocks);
  EXPECT_FALSE(r1.remainingDeadlocks.isFalse());

  const StrongResult r2 = addStrongConvergence(sp);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r2.stats.passCompleted, 4);
  EXPECT_TRUE(verify::check(sp, r2.relation).stronglyStabilizing());
  EXPECT_TRUE(verify::agreesInsideInvariant(sp, sp.protocolRelation(),
                                            r2.relation));
}

TEST(Heuristic, ColoringUsesTheFastPathOnly) {
  // Locally-correctable input: every batch is provably acyclic via the
  // incremental cone test, so no full SCC detection ever runs.
  const protocol::Protocol p = casestudies::coloring(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stats.sccFastPathHits, 0u);
  EXPECT_EQ(r.stats.sccComponentsFound, 0u);
}

TEST(Heuristic, Matching6SccWorkCountersGate) {
  // Deterministic work counters of matching(6), identity schedule. Before
  // SCC detection was confined to each batch's increment cone the run made
  // 7 detection calls finding 486 components of 5643 BDD nodes in total,
  // for 2620 symbolic steps. The cone must find the same components in
  // strictly fewer steps.
  const protocol::Protocol p = casestudies::matching(6);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const StrongResult r = addStrongConvergence(sp);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.sccDetectionCalls, 7u);
  EXPECT_EQ(r.stats.sccComponentsFound, 486u);
  EXPECT_EQ(r.stats.sccNodesTotal, 5643u);
  EXPECT_LT(r.stats.sccSymbolicSteps, 2620u);
}

class ScheduleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScheduleSweep, TokenRingSynthesisSucceedsForEveryRotation) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  StrongOptions opt;
  opt.schedule = core::rotatedSchedule(4, GetParam());
  const StrongResult r = addStrongConvergence(sp, opt);
  ASSERT_TRUE(r.success) << core::toString(r.failure);
  EXPECT_TRUE(verify::check(sp, r.relation).stronglyStabilizing());
  verifyExplicitly(p, enc, r.relation);
}

INSTANTIATE_TEST_SUITE_P(Rotations, ScheduleSweep,
                         ::testing::Values(0u, 1u, 2u, 3u));

class SizeSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SizeSweep, TokenRingScalesWithVerifiedResults) {
  const auto [k, d] = GetParam();
  const protocol::Protocol p = casestudies::tokenRing(k, d);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  StrongOptions opt;
  opt.schedule = core::rotatedSchedule(static_cast<std::size_t>(k), 1);
  const StrongResult r = addStrongConvergence(sp, opt);
  ASSERT_TRUE(r.success) << "k=" << k << " d=" << d << ": "
                         << core::toString(r.failure);
  EXPECT_TRUE(verify::check(sp, r.relation).stronglyStabilizing());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SizeSweep,
    ::testing::Values(std::pair{2, 2}, std::pair{3, 3}, std::pair{4, 3},
                      std::pair{4, 4}, std::pair{5, 4}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.first) + "_d" +
             std::to_string(info.param.second);
    });

}  // namespace
