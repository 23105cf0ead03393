// Unit tests for the BDD substrate: construction, boolean algebra,
// quantification, relational product, renaming, analyses, and garbage
// collection.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace stsyn::bdd {

/// Test-only backdoor (friend of Manager) used to plant adversarial
/// operation-cache entries for the GC sweep regression tests.
struct ManagerTestAccess {
  static void plantCacheEntry(Manager& m, NodeIndex a, NodeIndex b,
                              NodeIndex c, NodeIndex result) {
    Manager::CacheEntry& e = m.cache_.front();
    e.ka = a;  // op nibble 0 (And) | a-operand edge
    e.b = b;
    e.c = c;
    e.result = result;
  }
  static bool frontSlotEvicted(const Manager& m) {
    return m.cache_.front().ka == Manager::kCacheEmpty;
  }
};

}  // namespace stsyn::bdd

namespace {

using stsyn::bdd::Bdd;
using stsyn::bdd::Manager;
using stsyn::bdd::ManagerTestAccess;
using stsyn::bdd::NodeIndex;
using stsyn::bdd::Var;

std::vector<Var> levels(Var n) {
  std::vector<Var> out(n);
  for (Var i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(BddBasics, ConstantsAreDistinctAndIdempotent) {
  Manager m(4);
  EXPECT_TRUE(m.trueBdd().isTrue());
  EXPECT_TRUE(m.falseBdd().isFalse());
  EXPECT_FALSE(m.trueBdd() == m.falseBdd());
  EXPECT_TRUE(m.trueBdd() == m.constant(true));
}

TEST(BddBasics, NullHandleBehaviour) {
  Bdd null;
  EXPECT_FALSE(null.valid());
  EXPECT_FALSE(null.isTrue());
  EXPECT_FALSE(null.isFalse());
  EXPECT_EQ(null.nodeCount(), 0u);
  EXPECT_THROW((void)!null, std::invalid_argument);
}

TEST(BddBasics, VarAndNvarAreComplements) {
  Manager m(4);
  for (Var v = 0; v < 4; ++v) {
    EXPECT_TRUE(m.nvar(v) == !m.var(v));
  }
  EXPECT_THROW((void)m.var(4), std::out_of_range);
}

TEST(BddBasics, CanonicityStructuralEqualityIsSemantic) {
  Manager m(4);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  // Two different constructions of the same function share the node.
  EXPECT_TRUE((a | b) == (!((!a) & (!b))));
  EXPECT_TRUE((a ^ b) == ((a & (!b)) | ((!a) & b)));
}

TEST(BddBasics, OperandsFromDifferentManagersRejected) {
  Manager m1(2);
  Manager m2(2);
  EXPECT_THROW((void)(m1.var(0) & m2.var(0)), std::invalid_argument);
}

TEST(BddBasics, ImpliesMatchesDefinition) {
  Manager m(3);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_TRUE((a & b).implies(a));
  EXPECT_FALSE(a.implies(a & b));
  EXPECT_TRUE(m.falseBdd().implies(a));
  EXPECT_TRUE(a.implies(m.trueBdd()));
}

TEST(BddBasics, MinusIsSetDifference) {
  Manager m(2);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_TRUE(a.minus(b) == (a & !b));
  EXPECT_TRUE(a.minus(a).isFalse());
}

TEST(BddQuantify, ExistsRemovesSupport) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  const std::vector<Var> q{0};
  const Bdd ex = f.exists(m.cube(q));
  // exists x0: (x0 & x1) | x2  ==  x1 | x2
  EXPECT_TRUE(ex == (m.var(1) | m.var(2)));
  const auto sup = ex.support();
  EXPECT_EQ(sup, (std::vector<Var>{1, 2}));
}

TEST(BddQuantify, ForallIsDualOfExists) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  const std::vector<Var> q{0, 1};
  const Bdd cube = m.cube(q);
  EXPECT_TRUE(f.forall(cube) == !((!f).exists(cube)));
}

TEST(BddQuantify, QuantifyingNonSupportIsIdentity) {
  Manager m(4);
  const Bdd f = m.var(1) ^ m.var(2);
  const std::vector<Var> q{0, 3};
  EXPECT_TRUE(f.exists(m.cube(q)) == f);
  EXPECT_TRUE(f.forall(m.cube(q)) == f);
}

TEST(BddQuantify, AndExistsEqualsComposition) {
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(2)) | (m.var(1) & !m.var(3));
  const Bdd g = m.var(2) | m.var(4);
  const std::vector<Var> q{2, 3};
  const Bdd cube = m.cube(q);
  EXPECT_TRUE(f.andExists(g, cube) == (f & g).exists(cube));
}

TEST(BddRename, ShiftWithinSupportOrder) {
  Manager m(6);
  const Bdd f = m.var(0) & !m.var(2);
  std::vector<Var> perm{1, 1, 3, 3, 4, 5};  // 0->1, 2->3 (monotone)
  const Bdd g = f.rename(perm);
  EXPECT_TRUE(g == (m.var(1) & !m.var(3)));
}

TEST(BddRename, WrongArityRejected) {
  Manager m(4);
  std::vector<Var> tooShort{0, 1};
  EXPECT_THROW((void)m.var(0).rename(tooShort), std::invalid_argument);
}

TEST(BddAnalysis, SatCountOverExplicitLevels) {
  Manager m(4);
  const Bdd f = m.var(0) | m.var(1);
  const std::vector<Var> lv2{0, 1};
  EXPECT_DOUBLE_EQ(f.satCount(lv2), 3.0);
  const std::vector<Var> lv3{0, 1, 3};
  EXPECT_DOUBLE_EQ(f.satCount(lv3), 6.0);
  EXPECT_DOUBLE_EQ(m.trueBdd().satCount(lv3), 8.0);
  EXPECT_DOUBLE_EQ(m.falseBdd().satCount(lv3), 0.0);
}

TEST(BddAnalysis, SatCountRejectsUncoveredSupport) {
  Manager m(4);
  const Bdd f = m.var(2);
  const std::vector<Var> lv{0, 1};
  EXPECT_THROW((void)f.satCount(lv), std::invalid_argument);
}

TEST(BddAnalysis, NodeCountOfSharedStructure) {
  Manager m(8);
  // A chain x0&x1&...&x5 has exactly 6 nodes.
  Bdd f = m.trueBdd();
  for (Var v = 0; v < 6; ++v) f &= m.var(v);
  EXPECT_EQ(f.nodeCount(), 6u);
  EXPECT_EQ(m.trueBdd().nodeCount(), 0u);
}

TEST(BddAnalysis, EvalWalksTheGraph) {
  Manager m(3);
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  const std::vector<char> a0{1, 1, 0};
  const std::vector<char> a1{1, 0, 0};
  const std::vector<char> a2{0, 0, 1};
  EXPECT_TRUE(f.eval(a0));
  EXPECT_FALSE(f.eval(a1));
  EXPECT_TRUE(f.eval(a2));
}

TEST(BddAnalysis, OnePathSatisfiesTheFunction) {
  Manager m(5);
  const Bdd f = (m.var(0) ^ m.var(3)) & m.var(4);
  const auto path = f.onePath();
  std::vector<char> assign(5, 0);
  for (Var v = 0; v < 5; ++v) assign[v] = path[v] == 1 ? 1 : 0;
  EXPECT_TRUE(f.eval(assign));
  EXPECT_THROW((void)m.falseBdd().onePath(), std::invalid_argument);
}

TEST(BddAnalysis, ForEachSatEnumeratesExactlyTheModels) {
  Manager m(4);
  const Bdd f = (m.var(0) | m.var(1)) & !m.var(2);
  std::size_t count = 0;
  const auto lv = levels(4);
  f.forEachSat(lv, [&](std::span<const char> bits) {
    std::vector<char> assign(bits.begin(), bits.end());
    EXPECT_TRUE(f.eval(assign));
    ++count;
  });
  EXPECT_DOUBLE_EQ(static_cast<double>(count), f.satCount(lv));
}

TEST(BddGc, CollectionPreservesLiveFunctionsAndFreesDead) {
  Manager m(16);
  Bdd keep = m.var(0);
  for (Var v = 1; v < 16; ++v) keep = (keep & m.var(v)) | m.var(v - 1);
  const std::size_t keepNodes = keep.nodeCount();
  {
    // Build and drop a lot of garbage.
    Bdd junk = m.trueBdd();
    for (Var v = 0; v < 16; ++v) junk ^= m.var(v) & m.var((v + 5) % 16);
  }
  const std::size_t before = m.stats().liveNodes;
  m.collectGarbage();
  EXPECT_LT(m.stats().liveNodes, before);
  EXPECT_GE(m.stats().gcRuns, 1u);
  // The kept function is untouched and still canonical.
  EXPECT_EQ(keep.nodeCount(), keepNodes);
  Bdd again = m.var(0);
  for (Var v = 1; v < 16; ++v) again = (again & m.var(v)) | m.var(v - 1);
  EXPECT_TRUE(again == keep);
}

TEST(BddGc, AggressiveThresholdKeepsResultsCorrect) {
  Manager m(12);
  m.setGcThreshold(64);  // collect almost constantly
  stsyn::util::Rng rng(99);
  Bdd acc = m.falseBdd();
  for (int i = 0; i < 200; ++i) {
    const Var v = static_cast<Var>(rng.below(12));
    const Var w = static_cast<Var>(rng.below(12));
    acc = (acc ^ m.var(v)) | (m.var(w) & !m.var(v));
  }
  // Verify against brute-force evaluation on every assignment.
  const auto lv = levels(12);
  double models = 0;
  for (unsigned bits = 0; bits < (1u << 12); ++bits) {
    std::vector<char> assign(12);
    for (Var v = 0; v < 12; ++v) assign[v] = (bits >> v) & 1;
    if (acc.eval(assign)) models += 1;
  }
  EXPECT_DOUBLE_EQ(acc.satCount(lv), models);
}

TEST(BddDot, WritesParsableDigraph) {
  Manager m(3);
  const Bdd f = m.var(0) & !m.var(2);
  std::ostringstream os;
  m.writeDot(os, f, [](Var v) { return "level" + std::to_string(v); });
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph bdd"), std::string::npos);
  EXPECT_NE(dot.find("level0"), std::string::npos);
  EXPECT_NE(dot.find("level2"), std::string::npos);
  EXPECT_EQ(dot.find("level1"), std::string::npos);  // not in support
}

TEST(BddCube, CubeOfUnsortedVarsIsSortedConjunction) {
  Manager m(6);
  const std::vector<Var> vs{4, 1, 3};
  const Bdd c = m.cube(vs);
  EXPECT_TRUE(c == (m.var(1) & m.var(3) & m.var(4)));
}

TEST(BddCube, DuplicateVarsAreDeduplicated) {
  // Regression: a duplicate used to chain two nodes of the same variable,
  // producing a structurally invalid diagram (debug builds asserted).
  Manager m(6);
  const std::vector<Var> dup{3, 1, 3, 3, 1};
  const Bdd c = m.cube(dup);
  EXPECT_TRUE(c == (m.var(1) & m.var(3)));
  EXPECT_EQ(c.nodeCount(), 2u);
  // Quantifying over a duplicated-variable cube behaves like the deduped one.
  const Bdd f = (m.var(1) & m.var(2)) | m.var(3);
  const std::vector<Var> q{1, 1};
  EXPECT_TRUE(f.exists(m.cube(q)) == (m.var(2) | m.var(3)));
}

TEST(BddCube, EqualVarsBuildsBiconditionals) {
  Manager m(4);
  const std::vector<std::pair<Var, Var>> pairs{{0, 1}, {2, 3}};
  const Bdd eq = m.equalVars(pairs);
  const std::vector<char> same{1, 1, 0, 0};
  const std::vector<char> diff{1, 0, 0, 0};
  EXPECT_TRUE(eq.eval(same));
  EXPECT_FALSE(eq.eval(diff));
}

TEST(BddCompose, SubstitutionMatchesDefinition) {
  Manager m(5);
  const Bdd f = (m.var(0) & m.var(2)) | m.var(4);
  const Bdd g = m.var(1) ^ m.var(3);
  const Bdd composed = f.compose(2, g);
  // Direct construction of f[x2 := g].
  const Bdd expected = (m.var(0) & g) | m.var(4);
  EXPECT_TRUE(composed == expected);
  // Composing a variable not in the support is the identity.
  EXPECT_TRUE(f.compose(1, g) == f);
  // Substituting constants is cofactoring.
  EXPECT_TRUE(f.compose(2, m.trueBdd()) == (m.var(0) | m.var(4)));
  EXPECT_TRUE(f.compose(0, m.falseBdd()) == m.var(4));
  EXPECT_THROW((void)f.compose(99, g), std::out_of_range);
}

TEST(BddCompose, SubstituteUpwardDependentFunction) {
  // g depends on a variable ABOVE the substituted one — the case plain
  // mk-based recursion cannot handle.
  Manager m(4);
  const Bdd f = m.var(2) & m.var(3);
  const Bdd g = m.var(0);
  EXPECT_TRUE(f.compose(2, g) == (m.var(0) & m.var(3)));
}

TEST(BddSerialize, RoundTripsExactly) {
  Manager m(8);
  stsyn::util::Rng rng(5);
  Bdd f = m.falseBdd();
  for (int i = 0; i < 60; ++i) {
    const Var a = static_cast<Var>(rng.below(8));
    const Var b = static_cast<Var>(rng.below(8));
    f = (f ^ m.var(a)) | (m.var(b) & !m.var(a));
  }
  std::stringstream buffer;
  saveBdd(buffer, f);
  const Bdd back = loadBdd(buffer, m);
  EXPECT_TRUE(back == f);
}

TEST(BddSerialize, LoadsIntoAFreshManager) {
  Manager m1(6);
  const Bdd f = (m1.var(0) & m1.var(3)) ^ m1.var(5);
  std::stringstream buffer;
  saveBdd(buffer, f);

  Manager m2(6);
  const Bdd g = loadBdd(buffer, m2);
  // Same truth table in the new manager.
  for (unsigned bits = 0; bits < 64; ++bits) {
    std::vector<char> assign(6);
    for (Var v = 0; v < 6; ++v) assign[v] = (bits >> v) & 1;
    EXPECT_EQ(g.eval(assign), f.eval(assign)) << bits;
  }
}

TEST(BddSerialize, ConstantsAndErrors) {
  Manager m(3);
  {
    std::stringstream buffer;
    saveBdd(buffer, m.trueBdd());
    EXPECT_TRUE(loadBdd(buffer, m).isTrue());
  }
  for (const char* header : {"not-a-bdd 1 2 3", "bdd 3 0 1\n"}) {
    // "bdd" is the retired pre-complement v1 format.
    std::stringstream bad(header);
    EXPECT_THROW((void)loadBdd(bad, m), std::runtime_error) << header;
  }
  {
    std::stringstream dangling("bdd 3 1 2\n2 0 7 1\n");
    EXPECT_THROW((void)loadBdd(dangling, m), std::runtime_error);
  }
  {
    Manager tiny(1);
    std::stringstream toBig("bdd 3 0 1\n");
    EXPECT_THROW((void)loadBdd(toBig, tiny), std::runtime_error);
  }
}

TEST(BddSerialize, ComplementedFunctionsRoundTripAndShareTheTable) {
  // With complement edges f and !f are the same node table under opposite
  // root signs: the v2 writer must emit identical rows for both, and the
  // loader must restore the relationship exactly.
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(3)) ^ (!m.var(1) | m.var(5));
  const Bdd nf = !f;

  std::stringstream bufF;
  std::stringstream bufNf;
  saveBdd(bufF, f);
  saveBdd(bufNf, nf);
  const std::string textF = bufF.str();
  const std::string textNf = bufNf.str();
  // Both are v2 documents and differ only in the header's root ref (the
  // node rows — everything after the first line — are byte-identical).
  EXPECT_EQ(textF.substr(0, 4), "bdd2");
  EXPECT_EQ(textF.substr(textF.find('\n')), textNf.substr(textNf.find('\n')));

  Manager m2(6);
  std::stringstream inF(textF);
  std::stringstream inNf(textNf);
  const Bdd g = loadBdd(inF, m2);
  const Bdd ng = loadBdd(inNf, m2);
  EXPECT_EQ(ng, !g);
  for (unsigned bits = 0; bits < 64; ++bits) {
    std::vector<char> assign(6);
    for (Var v = 0; v < 6; ++v) assign[v] = (bits >> v) & 1;
    EXPECT_EQ(g.eval(assign), f.eval(assign)) << bits;
    EXPECT_EQ(ng.eval(assign), nf.eval(assign)) << bits;
  }
  // The constant FALSE is a complemented edge into the terminal: ref 1,
  // zero rows.
  std::stringstream bufFalse;
  saveBdd(bufFalse, m.falseBdd());
  EXPECT_EQ(bufFalse.str(), "bdd2 6 0 1\n");
  std::stringstream inFalse(bufFalse.str());
  EXPECT_TRUE(loadBdd(inFalse, m2).isFalse());
}

TEST(BddGc, CacheSweepEvictsEntriesWithOutOfRangeResults) {
  // Regression: the sweep bounds-checked the operand slots a/b/c against
  // the mark table but indexed marks_[e.result] unchecked, an
  // out-of-bounds read for any entry whose result slot carries a stale or
  // non-node payload. Plant exactly that entry and collect.
  Manager m(4);
  const Bdd keep = m.var(0) & m.var(1);
  ManagerTestAccess::plantCacheEntry(m, /*a=*/1, /*b=*/1, /*c=*/1,
                                     /*result=*/NodeIndex{1} << 30);
  m.collectGarbage();
  EXPECT_TRUE(ManagerTestAccess::frontSlotEvicted(m));
  // The manager still computes correctly after the sweep.
  EXPECT_EQ(keep & m.var(0), keep);
}

TEST(BddGc, CacheSweepEvictsEntriesWhoseResultDied) {
  Manager m(4);
  {
    const Bdd dead = m.var(2) ^ m.var(3);
    ManagerTestAccess::plantCacheEntry(m, /*a=*/1, /*b=*/1, /*c=*/1,
                                       dead.raw());
  }  // handle dropped: the planted result node is now garbage
  m.collectGarbage();
  EXPECT_TRUE(ManagerTestAccess::frontSlotEvicted(m));
}

TEST(BddThreads, BindToCurrentThreadAdoptsAManagerBuiltElsewhere) {
  // The sanctioned handoff: build on one thread, join, re-pin, then use
  // freely — exactly what the schedule portfolio does per instance.
  std::unique_ptr<Manager> m;
  Bdd f;
  std::thread builder([&] {
    m = std::make_unique<Manager>(3);
    f = m->var(1) & m->var(2);
  });
  builder.join();
  m->bindToCurrentThread();
  EXPECT_EQ(f, m->var(1) & m->var(2));
  const Bdd g = f | m->var(0);
  EXPECT_FALSE(g.isFalse());
}

#ifndef NDEBUG
TEST(BddThreadsDeathTest, OffThreadHandleCopyAssertsInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Copying a handle bumps the owning manager's ref counts — the widest
  // cross-thread mutation surface, and the one the confinement assert
  // must catch.
  EXPECT_DEATH(
      {
        Manager m(2);
        const Bdd f = m.var(0);
        std::thread t([&] {
          const Bdd copy = f;  // ref() off the owning thread
          (void)copy;
        });
        t.join();
      },
      "thread-confined");
}
#endif

}  // namespace
