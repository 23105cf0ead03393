// Randomized differential testing: generate random small protocols
// (random topology, random invariant; empty action sets so closure holds
// trivially), run BOTH synthesis engines, and assert they agree exactly —
// plus, on success, that the result verifies against the explicit checker.
//
// This is the widest net in the suite: it explores protocol shapes none of
// the case studies have (asymmetric localities, multi-writer processes,
// disconnected reads).
#include <gtest/gtest.h>

#include <numeric>

#include "analysis/staticinfo.hpp"
#include "protocol/builder.hpp"
#include "core/heuristic.hpp"
#include "core/portfolio.hpp"
#include "core/ranks.hpp"
#include "core/schedule.hpp"
#include "explicitstate/synthesis.hpp"
#include "explicitstate/verify.hpp"
#include "symbolic/decode.hpp"
#include "symbolic/frontier.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

/// A random protocol: 3-4 variables with domains 2-3, 2-4 processes with
/// random read sets (always containing their writes), a random non-empty,
/// non-full invariant built from equalities/inequalities.
protocol::Protocol randomProtocol(util::Rng& rng) {
  protocol::ProtocolBuilder b("random");
  const std::size_t nVars = 3 + rng.below(2);
  std::vector<protocol::VarId> vars;
  std::vector<int> domains;
  for (std::size_t v = 0; v < nVars; ++v) {
    const int d = 2 + static_cast<int>(rng.below(2));
    domains.push_back(d);
    vars.push_back(b.variable("v" + std::to_string(v), d));
  }

  const std::size_t nProcs = 2 + rng.below(3);
  for (std::size_t j = 0; j < nProcs; ++j) {
    // Writes: one or two random variables. Reads: the writes plus a random
    // subset of the rest.
    std::vector<protocol::VarId> writes{vars[rng.below(nVars)]};
    if (rng.below(4) == 0) writes.push_back(vars[rng.below(nVars)]);
    std::vector<protocol::VarId> reads = writes;
    for (const protocol::VarId v : vars) {
      if (rng.below(2) == 0) reads.push_back(v);
    }
    b.process("P" + std::to_string(j), reads, writes);
  }

  // Invariant: conjunction/disjunction of 2-3 random literals. Reject
  // empty/full instances by retrying at the caller.
  protocol::E inv;
  const std::size_t terms = 2 + rng.below(2);
  for (std::size_t t = 0; t < terms; ++t) {
    const protocol::VarId v = vars[rng.below(nVars)];
    const int val = static_cast<int>(rng.below(domains[v]));
    protocol::E lit = rng.flip()
                          ? (protocol::ref(v) == protocol::lit(val))
                          : (protocol::ref(v) != protocol::lit(val));
    if (t == 0) {
      inv = lit;
    } else {
      inv = rng.flip() ? (inv && lit) : (inv || lit);
    }
  }
  b.invariant(inv);
  return b.build();
}

class RandomProtocolDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocolDifferential, EnginesAgreeAndResultsVerify) {
  util::Rng rng(GetParam() * 7919 + 13);
  for (int instance = 0; instance < 6; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;  // degenerate invariant: nothing to synthesize
    }

    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::StrongResult sym = core::addStrongConvergence(sp);
    const explicitstate::SynthResult ex =
        explicitstate::addStrongConvergenceExplicit(space);

    // Engine agreement, transition for transition.
    ASSERT_EQ(sym.success, ex.success) << "seed " << GetParam()
                                       << " instance " << instance;
    EXPECT_EQ(static_cast<int>(sym.failure), static_cast<int>(ex.failure));
    EXPECT_EQ(sym.stats.passCompleted, ex.passCompleted);
    std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
        symEdges;
    for (const auto& [from, to] :
         symbolic::decodeRelation(enc, sym.relation)) {
      symEdges.emplace_back(from, to);
    }
    ASSERT_EQ(symEdges, ex.relation)
        << "seed " << GetParam() << " instance " << instance;

    if (sym.success) {
      // Soundness: the synthesized protocol verifies in both engines.
      EXPECT_TRUE(verify::check(sp, sym.relation).stronglyStabilizing());
      const auto ts = explicitstate::fromEdges(space, ex.relation);
      const auto report = explicitstate::check(space, ts);
      EXPECT_TRUE(report.stronglyStabilizing());
      // And the interference constraint of Problem III.1 holds.
      EXPECT_TRUE(verify::agreesInsideInvariant(sp, sp.protocolRelation(),
                                                sym.relation));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocolDifferential,
                         ::testing::Range<std::uint64_t>(0, 15));

class RandomProtocolWeak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocolWeak, RanksAgreeWithExplicitBfs) {
  util::Rng rng(GetParam() * 104729 + 7);
  for (int instance = 0; instance < 4; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0) continue;

    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::Ranking ranking = core::computeRanks(sp);
    const explicitstate::SynthResult ex =
        explicitstate::addStrongConvergenceExplicit(space);

    // Rank-by-rank agreement between the two ComputeRanks implementations.
    for (std::size_t i = 0; i < ranking.ranks.size(); ++i) {
      for (const std::uint64_t s :
           symbolic::decodeStates(enc, ranking.ranks[i])) {
        EXPECT_EQ(ex.ranks[s], static_cast<std::int64_t>(i))
            << "seed " << GetParam() << " state " << s;
      }
    }
    for (const std::uint64_t s :
         symbolic::decodeStates(enc, ranking.unreachable)) {
      EXPECT_EQ(ex.ranks[s], explicitstate::kRankInfinity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocolWeak,
                         ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Analysis parity under complement edges: satCount, forEachSat (via
// decodeStates) and onePath must agree with the explicit state space on
// random protocols — for a predicate AND its complement, since the
// complemented operand exercises the 2^n - count correction and the
// effective-edge walks that the representation rewrite introduced.
// ---------------------------------------------------------------------------

class AnalysisParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalysisParity, CountEnumerateAndWitnessMatchExplicit) {
  util::Rng rng(GetParam() * 15485863 + 11);
  for (int instance = 0; instance < 4; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const bdd::Bdd inv = sp.invariant();
    // A genuinely complemented operand: everything valid outside I.
    const bdd::Bdd outside = enc.validCur() & !inv;

    std::vector<std::uint64_t> inStates;
    std::vector<std::uint64_t> outStates;
    for (explicitstate::StateId s = 0; s < space.size(); ++s) {
      (space.inInvariant(s) ? inStates : outStates).push_back(s);
    }

    // satCount parity (countStates divides out the next-state copy and
    // invalid codes; satCountOf's complement correction sits underneath).
    EXPECT_DOUBLE_EQ(enc.countStates(inv),
                     static_cast<double>(inStates.size()))
        << "seed " << GetParam() << " instance " << instance;
    EXPECT_DOUBLE_EQ(enc.countStates(outside),
                     static_cast<double>(outStates.size()));

    // forEachSat parity: decodeStates enumerates every satisfying cur-state
    // assignment; ascending packed codes must match the explicit scan.
    EXPECT_EQ(symbolic::decodeStates(enc, inv), inStates)
        << "seed " << GetParam() << " instance " << instance;
    EXPECT_EQ(symbolic::decodeStates(enc, outside), outStates);

    // onePath parity: the completed witness lies in the set it was drawn
    // from, on both sides of the complement.
    if (!inv.isFalse()) {
      const auto st = enc.completeState(inv.onePath());
      EXPECT_TRUE(space.inInvariant(symbolic::packState(p, st)));
    }
    if (!outside.isFalse()) {
      const auto st = enc.completeState(outside.onePath());
      EXPECT_FALSE(space.inInvariant(symbolic::packState(p, st)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisParity,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Image-policy differential testing: the partitioned engine must agree with
// the monolithic one BDD for BDD — not just up to verification, but on the
// exact node of every product and every synthesized relation.
// ---------------------------------------------------------------------------

class ImagePolicyDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImagePolicyDifferential, ProductsAgreeBddForBdd) {
  util::Rng rng(GetParam() * 2654435761 + 17);
  for (int instance = 0; instance < 3; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    // Random protocols carry no actions of their own (recovery is what
    // gets synthesized), so run the engines over the candidate relations —
    // rich, frame-fenced per-process parts.
    std::vector<bdd::Bdd> parts;
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      parts.push_back(sp.candidates(j));
    }
    const symbolic::ImageEngine mono(sp, parts,
                                     symbolic::ImagePolicy::Monolithic);
    const symbolic::ImageEngine part(sp, parts,
                                     symbolic::ImagePolicy::PerProcess);
    ASSERT_FALSE(mono.partitioned());
    ASSERT_TRUE(part.partitioned());
    EXPECT_EQ(mono.relation(), part.relation());
    EXPECT_EQ(mono.sources(), part.sources());
    EXPECT_EQ(mono.targets(), part.targets());

    const bdd::Bdd inv = sp.invariant();
    const bdd::Bdd valid = sp.enc().validCur();
    const std::vector<bdd::Bdd> sets{
        enc.manager().falseBdd(), valid, inv, valid & !inv,
        mono.image(inv),          mono.preimage(valid & !inv)};
    for (const bdd::Bdd& s : sets) {
      EXPECT_EQ(mono.image(s), part.image(s))
          << "seed " << GetParam() << " instance " << instance;
      EXPECT_EQ(mono.preimage(s), part.preimage(s))
          << "seed " << GetParam() << " instance " << instance;
      EXPECT_EQ(mono.image(s, valid & !inv), part.image(s, valid & !inv));
      EXPECT_EQ(mono.preimage(s, valid & !inv),
                part.preimage(s, valid & !inv));
      // Restricted engines (the SCC trim loop's shape) agree too.
      EXPECT_EQ(mono.restricted(valid & !inv).image(s),
                part.restricted(valid & !inv).image(s));
    }
  }
}

TEST_P(ImagePolicyDifferential, RanksAgreeBddForBdd) {
  util::Rng rng(GetParam() * 6700417 + 29);
  for (int instance = 0; instance < 2; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::Ranking monoR =
        core::computeRanks(sp, nullptr, symbolic::ImagePolicy::Monolithic);
    const core::Ranking partR =
        core::computeRanks(sp, nullptr, symbolic::ImagePolicy::PerProcess);
    EXPECT_EQ(monoR.pim, partR.pim);
    EXPECT_EQ(monoR.unreachable, partR.unreachable);
    ASSERT_EQ(monoR.ranks.size(), partR.ranks.size());
    for (std::size_t i = 0; i < monoR.ranks.size(); ++i) {
      EXPECT_EQ(monoR.ranks[i], partR.ranks[i]) << "rank " << i;
    }
  }
}

TEST_P(ImagePolicyDifferential, StrongSynthesisIdenticalUnderBothPolicies) {
  util::Rng rng(GetParam() * 7919 + 13);  // same stream as the engine test
  for (int instance = 0; instance < 3; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;
    }
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    core::StrongOptions opt;
    opt.imagePolicy = symbolic::ImagePolicy::Monolithic;
    const core::StrongResult mono = core::addStrongConvergence(sp, opt);
    opt.imagePolicy = symbolic::ImagePolicy::PerProcess;
    const core::StrongResult part = core::addStrongConvergence(sp, opt);

    ASSERT_EQ(mono.success, part.success)
        << "seed " << GetParam() << " instance " << instance;
    EXPECT_EQ(static_cast<int>(mono.failure), static_cast<int>(part.failure));
    EXPECT_EQ(mono.stats.passCompleted, part.stats.passCompleted);
    // Same manager, so Bdd equality is node identity.
    EXPECT_EQ(mono.relation, part.relation);
    EXPECT_EQ(mono.remainingDeadlocks, part.remainingDeadlocks);
    ASSERT_EQ(mono.addedPerProcess.size(), part.addedPerProcess.size());
    for (std::size_t j = 0; j < mono.addedPerProcess.size(); ++j) {
      EXPECT_EQ(mono.addedPerProcess[j], part.addedPerProcess[j])
          << "process " << j;
    }
    // The engines do different numbers of per-part products but must
    // answer the same number of image/preimage queries.
    EXPECT_EQ(mono.stats.imageOps, part.stats.imageOps);
    EXPECT_EQ(mono.stats.preimageOps, part.stats.preimageOps);
    if (mono.success) {
      EXPECT_TRUE(verify::check(sp, mono.relation).stronglyStabilizing());
      EXPECT_TRUE(verify::check(sp, part.relation).stronglyStabilizing());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImagePolicyDifferential,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Variable-order differential testing: the static RCM layout changes the
// BDD level assignment only — synthesis outcomes, passes, and the decoded
// programs must match the declared order exactly.
// ---------------------------------------------------------------------------

class VarOrderDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarOrderDifferential, StaticOrderSynthesisIdenticalToDeclared) {
  util::Rng rng(GetParam() * 7919 + 13);  // same stream as the engine test
  for (int instance = 0; instance < 3; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;
    }

    symbolic::EncodingOptions decl;
    decl.varOrder = symbolic::VarOrder::Declared;
    symbolic::Encoding encD(p, decl);
    symbolic::SymbolicProtocol spD(encD);
    const core::StrongResult d = core::addStrongConvergence(spD);

    symbolic::EncodingOptions stat;
    stat.varOrder = symbolic::VarOrder::Static;
    symbolic::Encoding encS(p, stat);
    symbolic::SymbolicProtocol spS(encS);
    const core::StrongResult s = core::addStrongConvergence(spS);

    ASSERT_EQ(d.success, s.success)
        << "seed " << GetParam() << " instance " << instance;
    EXPECT_EQ(static_cast<int>(d.failure), static_cast<int>(s.failure));
    EXPECT_EQ(d.stats.passCompleted, s.stats.passCompleted);
    // Decoded (layout-independent) comparison: identical synthesized
    // relation and identical per-process additions.
    EXPECT_EQ(symbolic::decodeRelation(encD, d.relation),
              symbolic::decodeRelation(encS, s.relation))
        << "seed " << GetParam() << " instance " << instance;
    ASSERT_EQ(d.addedPerProcess.size(), s.addedPerProcess.size());
    for (std::size_t j = 0; j < d.addedPerProcess.size(); ++j) {
      EXPECT_EQ(symbolic::decodeRelation(encD, d.addedPerProcess[j]),
                symbolic::decodeRelation(encS, s.addedPerProcess[j]))
          << "process " << j;
    }
  }
}

TEST_P(VarOrderDifferential, HostileDeclarationOrderStillAgrees) {
  // Scramble the declaration order (renameVars keeps the protocol
  // semantically identical up to state relabeling) so the static order
  // genuinely differs from the identity, then check the same instance
  // against itself under both orders.
  util::Rng rng(GetParam() * 524287 + 41);
  for (int instance = 0; instance < 2; ++instance) {
    protocol::Protocol p = randomProtocol(rng);
    std::vector<protocol::VarId> perm(p.vars.size());
    std::iota(perm.begin(), perm.end(), protocol::VarId{0});
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    p = protocol::renameVars(p, perm);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;
    }

    symbolic::EncodingOptions stat;
    stat.varOrder = symbolic::VarOrder::Static;
    symbolic::Encoding encS(p, stat);
    symbolic::SymbolicProtocol spS(encS);
    const core::StrongResult s = core::addStrongConvergence(spS);

    symbolic::Encoding encD(p);
    symbolic::SymbolicProtocol spD(encD);
    const core::StrongResult d = core::addStrongConvergence(spD);

    ASSERT_EQ(d.success, s.success) << "seed " << GetParam();
    EXPECT_EQ(d.stats.passCompleted, s.stats.passCompleted);
    EXPECT_EQ(symbolic::decodeRelation(encD, d.relation),
              symbolic::decodeRelation(encS, s.relation))
        << "seed " << GetParam() << " instance " << instance;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarOrderDifferential,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Orbit-pruning differential testing: the pruned portfolio must succeed
// exactly when the unpruned one does, and its winner is predictable from
// the unpruned outcomes plus the static orbit analysis.
// ---------------------------------------------------------------------------

class OrbitPruneDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OrbitPruneDifferential, PrunedPortfolioMatchesUnprunedSemantics) {
  util::Rng rng(GetParam() * 1299709 + 3);
  for (int instance = 0; instance < 2; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;
    }
    std::vector<core::Schedule> schedules;
    for (std::size_t rot = 0; rot < p.processCount(); ++rot) {
      schedules.push_back(core::rotatedSchedule(p.processCount(), rot));
    }

    core::PortfolioOptions plain;
    plain.threads = 1;
    const core::PortfolioResult full =
        core::synthesizePortfolio(p, schedules, plain);
    core::PortfolioOptions pruning;
    pruning.threads = 1;
    pruning.orbitPrune = true;
    const core::PortfolioResult pruned =
        core::synthesizePortfolio(p, schedules, pruning);

    // Solvability must never change (the fallback guarantee).
    ASSERT_EQ(pruned.success(), full.success())
        << "seed " << GetParam() << " instance " << instance;
    if (!full.success()) continue;

    // Winner accounting. When the unpruned winner is itself a
    // representative, the pruned run reproduces it exactly: every
    // representative below it failed (they ran and failed in the unpruned
    // run too), so phase one stops at the same instance. When the winner
    // was a deferred schedule, the pruned run may legitimately settle on a
    // later representative instead (the orbit hash grouped
    // non-interchangeable schedules) — but the winner must then be a
    // successful representative, never an un-run instance.
    const analysis::ProcessOrbits orbits =
        analysis::computeOrbits(p, analysis::buildCommGraph(p));
    const std::vector<std::size_t> reps =
        analysis::scheduleRepresentatives(orbits, schedules);
    ASSERT_LT(pruned.winner, pruned.instances.size());
    EXPECT_TRUE(pruned.instances[pruned.winner].ran);
    EXPECT_TRUE(pruned.instances[pruned.winner].result.success);
    if (reps[full.winner] == full.winner) {
      EXPECT_EQ(pruned.winner, full.winner)
          << "seed " << GetParam() << " instance " << instance;
      // Same schedule + policy => identical synthesis: the winners'
      // decoded programs are identical BDD-for-BDD up to decoding.
      const auto& pw = pruned.instances[pruned.winner];
      const auto& fw = full.instances[full.winner];
      EXPECT_EQ(symbolic::decodeRelation(*pw.encoding, pw.result.relation),
                symbolic::decodeRelation(*fw.encoding, fw.result.relation));
    } else {
      EXPECT_TRUE(pruned.winner == full.winner ||
                  reps[pruned.winner] == pruned.winner)
          << "seed " << GetParam() << " instance " << instance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrbitPruneDifferential,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
