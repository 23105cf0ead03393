// Adversarial corpus for bdd::loadBdd. The serve daemon hands this
// function bytes that arrived over a socket, so every mutated, truncated,
// or hostile document must fail with a clean std::runtime_error — never an
// out-of-bounds index, never a multi-gigabyte allocation, never a hang.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace {

using stsyn::bdd::Bdd;
using stsyn::bdd::Manager;
using stsyn::bdd::loadBdd;
using stsyn::bdd::saveBdd;

/// Loads `doc` into a fresh 8-variable manager, expecting a clean failure.
void expectRejected(const std::string& doc) {
  Manager m(8);
  std::stringstream is(doc);
  EXPECT_THROW((void)loadBdd(is, m), std::runtime_error) << doc;
}

/// A small known-good v2 document to mutate: (x0 & x1) in an 8-var manager.
std::string goodV2() {
  Manager m(8);
  const Bdd f = m.var(0) & m.var(1);
  std::stringstream os;
  saveBdd(os, f);
  return os.str();
}

TEST(SerializeHardening, GoodDocumentStillLoads) {
  Manager m(8);
  std::stringstream is(goodV2());
  const Bdd f = loadBdd(is, m);
  EXPECT_TRUE(f == (m.var(0) & m.var(1)));
}

TEST(SerializeHardening, HeaderGarbage) {
  expectRejected("");
  expectRejected("bdd");
  expectRejected("bdd 8");
  expectRejected("bdd 8 1");
  expectRejected("bdd3 8 0 0\n");
  expectRejected("BDD 8 0 0\n");
  // The pre-complement v1 header is no longer accepted, not even for a
  // well-formed v1 document (this one is v1's constant TRUE).
  expectRejected("bdd 8 0 1\n");
  expectRejected("bdd2 zz 0 0\n");
  expectRejected("\x00\x01\x02\x03");
}

TEST(SerializeHardening, OversizedCounts) {
  // Declared node counts far past any real document must die at the
  // header, not after looping (or allocating) for 2^60 rows.
  expectRejected("bdd2 8 1152921504606846976 0\n");
  expectRejected("bdd 8 18446744073709551615 0\n");
  // Negative counts wrap to huge unsigned values through operator>>.
  expectRejected("bdd2 8 -1 0\n");
  // More variables than the manager has.
  expectRejected("bdd2 9999 0 0\n");
  expectRejected("bdd2 -1 0 0\n");
}

TEST(SerializeHardening, RootReferenceOutOfRange) {
  // v2: ids run 0..nodeCount, refs are (id << 1) | sign.
  expectRejected("bdd2 8 0 4\n");
  expectRejected("bdd2 8 1 6\n1 0 0 1\n");
  expectRejected("bdd2 8 0 -2\n");
  // Retired v1 documents with out-of-range roots: rejected at the header.
  expectRejected("bdd 8 0 2\n");
  expectRejected("bdd 8 1 7\n2 0 0 1\n");
}

TEST(SerializeHardening, NodeRowViolations) {
  // v2 row id 0 collides with the TRUE terminal.
  expectRejected("bdd2 8 1 2\n0 0 0 1\n");
  // v2 row id past the declared count.
  expectRejected("bdd2 8 1 2\n7 0 0 1\n");
  // Duplicate row id.
  expectRejected("bdd2 8 2 4\n1 0 0 1\n1 1 0 1\n");
  // Variable index past the declared varCount.
  expectRejected("bdd2 8 1 2\n1 8 0 1\n");
  // Forward reference: row 1 names the not-yet-defined row 2.
  expectRejected("bdd2 8 2 4\n1 0 4 1\n2 1 0 1\n");
  // Dangling child reference.
  expectRejected("bdd2 8 1 2\n1 0 12 1\n");
  // Retired v1 rows (terminal collision, out-of-range id, dangling ref):
  // rejected at the header.
  expectRejected("bdd 8 1 2\n1 0 0 1\n");
  expectRejected("bdd 8 1 2\n9 0 0 1\n");
  expectRejected("bdd 8 1 2\n2 0 7 1\n");
}

TEST(SerializeHardening, TruncatedTables) {
  const std::string good = goodV2();
  // Chop the document at every byte boundary; each prefix must either be
  // rejected cleanly or (for the rare prefix that is still a complete
  // document) load without crashing.
  for (std::size_t len = 0; len < good.size(); ++len) {
    Manager m(8);
    std::stringstream is(good.substr(0, len));
    try {
      (void)loadBdd(is, m);
    } catch (const std::runtime_error&) {
      // expected for nearly every prefix
    }
  }
}

TEST(SerializeHardening, MutatedTokens) {
  const std::string good = goodV2();
  // Replace each whitespace-separated token with garbage in turn.
  std::vector<std::string> tokens;
  std::string tok;
  std::stringstream split(good);
  while (split >> tok) tokens.push_back(tok);
  ASSERT_GE(tokens.size(), 8u);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    for (const char* garbage : {"x", "-3", "99999999999999999999", ""}) {
      std::vector<std::string> mutated = tokens;
      mutated[i] = garbage;
      std::string doc;
      for (const auto& t : mutated) {
        if (!t.empty()) doc += t + ' ';
      }
      Manager m(8);
      std::stringstream is(doc);
      try {
        (void)loadBdd(is, m);
      } catch (const std::runtime_error&) {
        // clean rejection is the expected outcome
      } catch (const std::invalid_argument&) {
        FAIL() << "loadBdd leaked std::invalid_argument for: " << doc;
      }
    }
  }
}

TEST(SerializeHardening, RejectionLeavesManagerUsable) {
  Manager m(8);
  std::stringstream bad("bdd2 8 2 4\n1 0 0 1\n1 1 0 1\n");
  EXPECT_THROW((void)loadBdd(bad, m), std::runtime_error);
  // The manager must survive a failed load: build and load again.
  const Bdd f = m.var(3) ^ m.var(4);
  std::stringstream os;
  saveBdd(os, f);
  EXPECT_TRUE(loadBdd(os, m) == f);
}

}  // namespace
