// Seeded request generation. Every input the program sees is .stsyn text
// generated here from the case studies, named with plain identifiers:
// the printer renders a case study's own name (e.g. "matching-6") as
// text that does not parse back.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

using stsyn::protocol::Protocol;

std::string render(Protocol p, const std::string& name) {
  p.name = name;
  return stsyn::lang::printProtocol(p);
}

/// A uniformly random permutation of the process names.
std::string randomSchedule(const Protocol& p, Rng& rng) {
  std::vector<std::size_t> perm(p.processCount());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  std::string out;
  for (const std::size_t j : perm) {
    if (!out.empty()) out += ',';
    out += p.processes[j].name;
  }
  return out;
}

/// P<start>, P<start+1>, ... wrapping around.
std::string rotatedSchedule(const Protocol& p, std::size_t start) {
  std::string out;
  for (std::size_t i = 0; i < p.processCount(); ++i) {
    if (!out.empty()) out += ',';
    out += p.processes[(start + i) % p.processCount()].name;
  }
  return out;
}

/// The same ring declared starting at variable and process `k`: an
/// isomorphic protocol whose text and declared variable order differ.
Protocol rotateDeclarations(const Protocol& p, std::size_t k) {
  const std::size_t n = p.varCount();
  std::vector<stsyn::protocol::VarId> perm(n);
  for (std::size_t v = 0; v < n; ++v) {
    perm[v] = static_cast<stsyn::protocol::VarId>((v + n - k) % n);
  }
  Protocol out = stsyn::protocol::renameVars(p, perm);
  const auto shift = static_cast<std::ptrdiff_t>(k % out.processCount());
  std::rotate(out.processes.begin(), out.processes.begin() + shift,
              out.processes.end());
  if (out.localPredicates.size() == out.processCount()) {
    std::rotate(out.localPredicates.begin(),
                out.localPredicates.begin() + shift,
                out.localPredicates.end());
  }
  return out;
}

// Pool sizes. strong_matching draws many schedules so that a run's mean
// cost does not depend on which few the seed picked (random matching(6)
// schedules cost 59-100 ms). Random coloring(12) schedules cost 48-347 ms
// and each distinct program costs ~2 s in the explicit-state oracle, so
// strong_coloring sends all 12 rotations of the identity schedule (113-330
// ms) in a seeded order: every run covers the same schedules, and the seed
// only decides their order.
constexpr std::size_t kMatchingPool = 64;
constexpr std::size_t kWeakPool = 16;

constexpr std::uint64_t kStreamPool = 1;
constexpr std::uint64_t kStreamKind = 2;
constexpr std::uint64_t kStreamPick = 3;
constexpr std::uint64_t kStreamHits = 4;

// serve_mix: every block of 16 requests holds these verbs in a seeded
// order. The proportions fix the hit rate and keep each percentile inside
// one cluster of request kinds, away from the boundaries where it jumps
// between kinds: ping is ~0.1 ms, lint ~2.6 ms, a hit ~3 ms and a miss
// ~11 ms, so p50 (the 8th of 16) falls in the middle of the hits and p90
// among the misses.
constexpr std::size_t kBlock = 16;
constexpr Verb kBlockVerbs[kBlock] = {
    Verb::Ping, Verb::Ping, Verb::Lint, Verb::Lint, Verb::Lint, Verb::Hit,
    Verb::Hit,  Verb::Hit,  Verb::Hit,  Verb::Hit,  Verb::Hit,  Verb::Hit,
    Verb::Hit,  Verb::Miss, Verb::Miss, Verb::Miss};
constexpr std::size_t kHitKeys = 8;

}  // namespace

std::optional<Workload> parseWorkload(std::string_view name) {
  for (const Workload w : {Workload::StrongMatching, Workload::StrongColoring,
                           Workload::WeakMatching, Workload::ServeMix}) {
    if (name == toString(w)) return w;
  }
  return std::nullopt;
}

const char* toString(Workload w) {
  switch (w) {
    case Workload::StrongMatching:
      return "strong_matching";
    case Workload::StrongColoring:
      return "strong_coloring";
    case Workload::WeakMatching:
      return "weak_matching";
    case Workload::ServeMix:
      return "serve_mix";
  }
  return "?";
}

const char* toString(Verb v) {
  switch (v) {
    case Verb::Ping:
      return "ping";
    case Verb::Lint:
      return "lint";
    case Verb::Hit:
      return "hit";
    case Verb::Miss:
      return "miss";
  }
  return "?";
}

std::vector<Request> batchPool(Workload w, std::uint64_t seed) {
  std::vector<Request> pool;
  Rng rng = streamRng(seed, kStreamPool, static_cast<std::uint64_t>(w));
  switch (w) {
    case Workload::StrongMatching: {
      const Protocol p = stsyn::casestudies::matching(6);
      const std::string text = render(p, "matching6");
      for (std::size_t i = 0; i < kMatchingPool; ++i) {
        pool.push_back({text, randomSchedule(p, rng), false});
      }
      break;
    }
    case Workload::StrongColoring: {
      const Protocol p = stsyn::casestudies::coloring(12);
      const std::string text = render(p, "coloring12");
      std::vector<std::size_t> starts(p.processCount());
      std::iota(starts.begin(), starts.end(), std::size_t{0});
      for (std::size_t i = starts.size(); i > 1; --i) {
        std::swap(starts[i - 1], starts[rng.below(i)]);
      }
      for (const std::size_t start : starts) {
        pool.push_back({text, rotatedSchedule(p, start), false});
      }
      break;
    }
    case Workload::WeakMatching: {
      const Protocol p = stsyn::casestudies::matching(13);
      for (std::size_t i = 0; i < kWeakPool; ++i) {
        const std::size_t k = rng.below(p.processCount());
        pool.push_back({render(rotateDeclarations(p, k), "matching13"), "",
                        true});
      }
      break;
    }
    case Workload::ServeMix:
      throw std::invalid_argument("serve_mix has no batch pool");
  }
  return pool;
}

std::string synthesizeFrame(const Request& r) {
  std::ostringstream frame;
  frame << R"({"verb":"synthesize","protocol":)"
        << stsyn::obs::jsonQuote(r.text);
  if (r.weak) {
    frame << R"(,"options":{"weak":true})";
  } else if (!r.schedule.empty()) {
    frame << R"(,"options":{"schedule":)" << stsyn::obs::jsonQuote(r.schedule)
          << '}';
  }
  frame << '}';
  return frame.str();
}

std::string lintFrame(const std::string& source) {
  return R"({"verb":"lint","protocol":)" + stsyn::obs::jsonQuote(source) +
         '}';
}

std::string replaceAll(std::string text, std::string_view from,
                       std::string_view to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

ServeCorpus::ServeCorpus(std::uint64_t seed) : seed_(seed) {
  // Small rings and matchings: a miss costs ~8 ms of synthesis, so the
  // serve layers (framing, event loop, queue, cache, per-request manager
  // set-up) carry a visible share of each request.
  const Protocol shapes[] = {stsyn::casestudies::tokenRing(4, 3),
                             stsyn::casestudies::matching(4)};
  Rng rng = streamRng(seed, kStreamHits, 0);
  for (std::size_t k = 0; k < kHitKeys; ++k) {
    const Protocol& p = shapes[k % 2];
    hits_.push_back({render(p, "hit_" + std::to_string(k)),
                     randomSchedule(p, rng), false});
  }
  const Protocol lint[] = {
      stsyn::casestudies::tokenRing(4, 3), stsyn::casestudies::matching(4),
      stsyn::casestudies::coloring(5), stsyn::casestudies::matching(5)};
  for (std::size_t k = 0; k < std::size(lint); ++k) {
    lintSources_.push_back(render(lint[k], "lint_" + std::to_string(k)));
  }
  for (const Protocol& p : shapes) {
    const std::string text = render(p, kMissPlaceholder);
    std::vector<std::size_t> perm(p.processCount());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    do {
      std::string schedule;
      for (const std::size_t j : perm) {
        if (!schedule.empty()) schedule += ',';
        schedule += p.processes[j].name;
      }
      missShapes_.push_back({text, schedule, false});
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

Request ServeCorpus::missRequest(std::size_t shape,
                                 const std::string& name) const {
  Request r = missShapes_.at(shape);
  r.text = replaceAll(std::move(r.text), kMissPlaceholder, name);
  return r;
}

ServeRequest ServeCorpus::request(std::uint64_t index) const {
  // The verb order inside a block: a seeded shuffle of kBlockVerbs.
  std::size_t order[kBlock];
  std::iota(std::begin(order), std::end(order), std::size_t{0});
  Rng block = streamRng(seed_, kStreamKind, index / kBlock);
  for (std::size_t i = kBlock; i > 1; --i) {
    std::swap(order[i - 1], order[block.below(i)]);
  }
  ServeRequest out;
  out.verb = kBlockVerbs[order[index % kBlock]];
  Rng pick = streamRng(seed_, kStreamPick, index);
  switch (out.verb) {
    case Verb::Ping:
      out.payload = R"({"verb":"ping"})";
      break;
    case Verb::Lint:
      out.shape = pick.below(lintSources_.size());
      out.payload = lintFrame(lintSources_[out.shape]);
      break;
    case Verb::Hit:
      out.shape = pick.below(hits_.size());
      out.payload = synthesizeFrame(hits_[out.shape]);
      break;
    case Verb::Miss:
      out.shape = pick.below(missShapes_.size());
      out.name = "miss_" + std::to_string(index);
      out.payload = synthesizeFrame(missRequest(out.shape, out.name));
      break;
  }
  return out;
}

}  // namespace perfbench
