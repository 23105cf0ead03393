// The output oracle. It runs after the timed phase and shares no code
// with the symbolic engine: programs are re-parsed from the text the
// program returned and checked by explicit state enumeration.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "explicitstate/semantics.hpp"
#include "explicitstate/synthesis.hpp"
#include "explicitstate/verify.hpp"
#include "lang/parser.hpp"

namespace perfbench {

bool explicitlyStabilizing(const std::string& program) {
  try {
    const stsyn::explicitstate::StateSpace space(
        stsyn::lang::parseProtocol(program));
    const auto ts = stsyn::explicitstate::buildTransitions(space);
    return stsyn::explicitstate::check(space, ts).stronglyStabilizing();
  } catch (const std::exception&) {
    return false;
  }
}

VerdictCache::VerdictCache(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  // Records are "<byte count>\n<program>"; a torn last record is ignored.
  std::ifstream in(path_, std::ios::binary);
  std::size_t size = 0;
  while (in >> size && in.get() == '\n') {
    std::string program(size, '\0');
    if (!in.read(program.data(), static_cast<std::streamsize>(size))) break;
    known_.insert(std::move(program));
  }
}

bool VerdictCache::stabilizing(const std::string& program) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (known_.count(program) != 0) return true;
  }
  if (!explicitlyStabilizing(program)) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (known_.insert(program).second) added_.push_back(program);
  return true;
}

void VerdictCache::save() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty() || added_.empty()) return;
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  for (const std::string& program : added_) {
    out << program.size() << '\n' << program;
  }
}

const std::string& pinnedWeakHistogram() {
  // matching(13), any declaration rotation; recomputed by the self-test.
  static const std::string kHistogram =
      "39,1014,11310,69446,250029,516035,539552,195431,11401,65,1";
  return kHistogram;
}

std::string explicitWeakHistogram(const std::string& text) {
  const stsyn::explicitstate::StateSpace space(
      stsyn::lang::parseProtocol(text));
  const auto weak = stsyn::explicitstate::addWeakConvergenceExplicit(space);
  if (!weak.success) return "rank-infinity";
  const std::int64_t top = *std::max_element(weak.ranks.begin(),
                                             weak.ranks.end());
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(top) + 1);
  for (const std::int64_t r : weak.ranks) ++counts[static_cast<std::size_t>(r)];
  std::string out;
  for (const std::uint64_t c : counts) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

std::size_t parallelCount(std::size_t items, unsigned threads,
                          const std::function<bool(std::size_t)>& check) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  auto work = [&] {
    for (std::size_t i = next++; i < items; i = next++) {
      bool ok = false;
      try {
        ok = check(i);
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok) ++failed;
    }
  };
  std::vector<std::thread> pool;
  const unsigned n = std::max(1u, std::min<unsigned>(
                                      threads, static_cast<unsigned>(items)));
  for (unsigned t = 1; t < n; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return failed;
}

std::size_t OutputLedger::failedAgainst(
    const std::function<std::string(const std::string&)>& expected) const {
  std::size_t failed = 0;
  for (const auto& [key, outputs] : seen_) {
    const std::string want = expected(key);
    for (const auto& [output, count] : outputs) {
      if (output != want) failed += count;
    }
  }
  return failed;
}

std::size_t OutputLedger::failedUnless(
    const std::function<bool(const std::string&)>& check,
    unsigned threads) const {
  std::map<std::string, std::size_t> distinct;
  for (const auto& [key, outputs] : seen_) {
    for (const auto& [output, count] : outputs) distinct[output] += count;
  }
  std::vector<std::pair<const std::string*, std::size_t>> items;
  for (const auto& [output, count] : distinct) {
    items.emplace_back(&output, count);
  }
  std::atomic<std::size_t> failed{0};
  (void)parallelCount(items.size(), threads, [&](std::size_t i) {
    if (!check(*items[i].first)) failed += items[i].second;
    return true;
  });
  return failed;
}

}  // namespace perfbench
