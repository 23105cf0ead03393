// Self-tests of the benchmark itself: seeded inputs, the percentile rule,
// exact repetition of the deterministic counters, and the pinned weak
// histogram. Run through `python3 perfbench/run.py --selftest`, which also
// compares the counters of two whole traced runs.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool samePool(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].text != b[i].text || a[i].schedule != b[i].schedule ||
        a[i].weak != b[i].weak) {
      return false;
    }
  }
  return true;
}

bool refuses(std::size_t n, double q) {
  try {
    (void)percentile(std::vector<double>(n, 1.0), q);
    return false;
  } catch (const std::domain_error&) {
    return true;
  }
}

void testSeededInputs() {
  for (const Workload w : {Workload::StrongMatching, Workload::StrongColoring,
                           Workload::WeakMatching}) {
    check(samePool(batchPool(w, 7), batchPool(w, 7)),
          std::string(toString(w)) + ": same seed, same request pool");
  }
  check(!samePool(batchPool(Workload::StrongMatching, 7),
                  batchPool(Workload::StrongMatching, 8)),
        "strong_matching: another seed draws other schedules");
  check(!samePool(batchPool(Workload::StrongColoring, 7),
                  batchPool(Workload::StrongColoring, 8)),
        "strong_coloring: another seed draws other rotations");
  check(!samePool(batchPool(Workload::WeakMatching, 7),
                  batchPool(Workload::WeakMatching, 8)),
        "weak_matching: another seed draws other declaration orders");

  const ServeCorpus a(7), b(7), c(8);
  bool same = true;
  bool differs = false;
  for (std::uint64_t i = 0; i < 256; ++i) {
    same = same && a.request(i).payload == b.request(i).payload;
    differs = differs || a.request(i).payload != c.request(i).payload;
  }
  check(same, "serve_mix: same seed, same request stream");
  check(differs, "serve_mix: another seed, another request stream");
  bool schedulesDiffer = false;
  for (std::size_t k = 0; k < a.hits().size(); ++k) {
    schedulesDiffer =
        schedulesDiffer || a.hits()[k].schedule != c.hits()[k].schedule;
  }
  check(schedulesDiffer, "serve_mix: another seed draws other hit schedules");

  std::size_t misses = 0;
  for (std::uint64_t i = 0; i < 1600; ++i) {
    misses += a.request(i).verb == Verb::Miss ? 1 : 0;
  }
  check(misses == 300, "serve_mix: 3 misses in every block of 16");
}

void testPercentile() {
  check(samplesNeeded(0.90) == 100, "p90 needs 100 samples");
  check(samplesNeeded(0.50) == 20, "p50 needs 20 samples");
  check(refuses(99, 0.90) && !refuses(100, 0.90),
        "p90 refused below 10 samples beyond it");
  check(refuses(19, 0.50) && !refuses(20, 0.50),
        "p50 refused below 10 samples beyond it");
  check(refuses(999, 0.99) && !refuses(1000, 0.99),
        "p99 refused below 10 samples beyond it");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(percentile(v, 0.90) == 90.0 && percentile(v, 0.50) == 50.0,
        "nearest-rank percentiles");
}

void testGauge() {
  constexpr std::size_t kSegments = 4;
  HostGauge gauge;
  for (std::size_t i = 0; i < kSegments; ++i) {
    gauge.mark();
    const Clock::time_point start = Clock::now();
    while (msSince(start) < 5) {
    }
  }
  gauge.mark();
  double lo = 1e300;
  double hi = 0;
  for (std::size_t i = 0; i < kSegments; ++i) {
    lo = std::min(lo, gauge.scale(i));
    hi = std::max(hi, gauge.scale(i));
  }
  const double raw = gauge.seconds(false);
  const double scaled = gauge.seconds(true);
  check(lo > 0 && raw >= 0.020 && raw < 1.0 && gauge.medianMs() > 0,
        "gauge: 4 closed segments of 5 ms, each with a positive scale");
  check(scaled >= raw * lo * (1 - 1e-12) && scaled <= raw * hi * (1 + 1e-12),
        "gauge: scaled seconds lie between the smallest and largest scale");
}

void testCountersRepeat() {
  for (const Workload w : {Workload::StrongMatching, Workload::StrongColoring,
                           Workload::WeakMatching}) {
    const Request r = batchPool(w, 3).front();
    SpanLog log;
    const LayerRecord x = runTraced(r, log);
    const LayerRecord y = runTraced(r, log);
    const bool same =
        x.answer.ok && y.answer.ok && x.answer.output == y.answer.output &&
        x.sccSteps == y.sccSteps && x.preimageOps == y.preimageOps &&
        x.imageOps == y.imageOps &&
        x.heuristic.cacheLookups == y.heuristic.cacheLookups &&
        x.heuristic.uniqueProbes == y.heuristic.uniqueProbes &&
        x.verify.cacheLookups == y.verify.cacheLookups &&
        x.verify.uniqueProbes == y.verify.uniqueProbes &&
        x.ranking.cacheLookups == y.ranking.cacheLookups &&
        x.ranking.uniqueProbes == y.ranking.uniqueProbes;
    check(same, std::string(toString(w)) +
                    ": deterministic counters repeat exactly");
    check(runRequest(r).output == x.answer.output,
          std::string(toString(w)) +
              ": traced pipeline output equals cli::runProtocol's");
  }
}

void testWeakHistogram() {
  const std::vector<Request> pool = batchPool(Workload::WeakMatching, 5);
  const std::string symbolic = runRequest(pool.front()).output;
  check(symbolic == pinnedWeakHistogram(),
        "weak_matching: symbolic histogram equals the pinned one");
  check(runRequest(pool.back()).output == pinnedWeakHistogram(),
        "weak_matching: a rotated declaration gives the same histogram");
  const std::string explicitHist = explicitWeakHistogram(pool.front().text);
  check(explicitHist == pinnedWeakHistogram(),
        "weak_matching: explicit-state histogram equals the pinned one (" +
            explicitHist + ")");
}

}  // namespace

int main() {
  testSeededInputs();
  testPercentile();
  testGauge();
  testCountersRepeat();
  testWeakHistogram();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
