// The batch workloads: one client sends synthesis requests from a seeded
// pool through lang::parseProtocol + cli::runProtocol, one at a time.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "cli/driver.hpp"
#include "lang/parser.hpp"

namespace perfbench {

namespace {

/// A run stops taking new requests after this long even when it has not
/// collected enough samples; the percentile helper then refuses.
constexpr double kHardCapSeconds = 120;
/// Explicit-state checks run on this many threads (a coloring(12)
/// program takes ~6 s and ~170 MB).
constexpr unsigned kOracleThreads = 2;

struct Prepared {
  std::vector<Request> pool;
  SetupTimer setup;
};

/// Set-up: generate the seeded pool and validate every request in it:
/// its text parses and its schedule names the protocol's processes.
/// Repeated kSetups times; setup_s is the median.
Prepared prepare(Workload w, std::uint64_t seed) {
  Prepared p;
  for (int rep = 0; rep < kSetups; ++rep) {
    p.setup.begin();
    p.pool = batchPool(w, seed);
    for (const Request& r : p.pool) {
      const stsyn::protocol::Protocol proto =
          stsyn::lang::parseProtocol(r.text);
      stsyn::core::Schedule schedule;
      std::ostringstream err;
      if (!r.schedule.empty() &&
          !stsyn::cli::parseSchedule(r.schedule, proto, schedule, err)) {
        throw std::invalid_argument("bad schedule in corpus: " + err.str());
      }
    }
    p.setup.end();
  }
  p.setup.finish();
  return p;
}

struct Loop {
  std::vector<double> latencies;  ///< of correctly answered requests
  std::vector<std::size_t> segments;  ///< each latency's gauge segment
  std::uint64_t sent = 0;
  double seconds = 0;
};

/// Sends pool requests in order until `seconds` have passed and at least
/// `minSamples` were answered. Outputs go to `ledger` keyed by pool index.
/// With a gauge, the gauge runs between requests every kGaugeEveryMs.
Loop drive(const std::vector<Request>& pool, std::size_t& next,
           double seconds, std::size_t minSamples, OutputLedger& ledger,
           std::map<std::size_t, std::string>& outputs, RunResult& out,
           HostGauge* gauge = nullptr) {
  Loop loop;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = msSince(start) / 1e3;
    if ((elapsed >= seconds && loop.latencies.size() >= minSamples) ||
        elapsed >= kHardCapSeconds) {
      loop.seconds = elapsed;
      if (gauge != nullptr) gauge->mark();
      return loop;
    }
    if (gauge != nullptr) gauge->tick();
    const std::size_t index = next++ % pool.size();
    const Clock::time_point t = Clock::now();
    const Answer a = runRequest(pool[index]);
    const double ms = msSince(t);
    ++loop.sent;
    if (!a.ok) {
      out.fail("request failed: " + a.error, 1);
      continue;
    }
    loop.latencies.push_back(ms);
    loop.segments.push_back(gauge != nullptr ? gauge->segment() : 0);
    ledger.record(std::to_string(index), a.output);
    outputs.emplace(index, a.output);
  }
}

/// The oracle: every distinct strong program is re-parsed and checked by
/// the explicit-state engine; every weak histogram must equal the pinned
/// one.
void checkOutputs(const RunConfig& cfg, const std::vector<Request>& pool,
                  const OutputLedger& ledger, RunResult& out) {
  std::size_t bad = 0;
  if (pool.front().weak) {
    bad = ledger.failedAgainst(
        [](const std::string&) { return pinnedWeakHistogram(); });
  } else {
    VerdictCache verdicts(cfg.oracleCache);
    bad = ledger.failedUnless(
        [&](const std::string& program) {
          return verdicts.stabilizing(program);
        },
        kOracleThreads);
    verdicts.save();
  }
  if (bad != 0) out.fail("output oracle rejected outputs", bad);
}

}  // namespace

RunResult runBatch(const RunConfig& cfg) {
  RunResult out;
  const Prepared prep = prepare(cfg.workload, cfg.seed);
  const std::vector<Request>& pool = prep.pool;
  OutputLedger ledger;
  std::map<std::size_t, std::string> outputs;

  // Untimed warm-up: one request, not counted.
  if (!runRequest(pool.front()).ok) out.fail("warm-up request failed");

  std::size_t next = 0;
  Metrics& m = out.metrics;
  if (!cfg.trace) {
    HostGauge gauge;
    const Loop loop = drive(pool, next, cfg.seconds, samplesNeeded(0.90),
                            ledger, outputs, out, &gauge);
    out.attempted = loop.sent;
    checkOutputs(cfg, pool, ledger, out);
    std::vector<double> scaled;
    for (std::size_t i = 0; i < loop.latencies.size(); ++i) {
      scaled.push_back(loop.latencies[i] * gauge.scale(loop.segments[i]));
    }
    const double answered = std::max<double>(
        static_cast<double>(loop.latencies.size()), 1.0);
    m.add("setup_s", prep.setup.scaledSeconds(), "s");
    out.unscaled.add("setup_s", prep.setup.rawSeconds(), "s");
    addEndToEnd(out, answered, gauge, loop.latencies, scaled);
    return out;
  }

  // Traced run: half the time through cli::runProtocol (the overhead
  // baseline), half through the traced pipeline.
  const Loop plain =
      drive(pool, next, cfg.seconds / 2, 1, ledger, outputs, out);
  SpanLog log;
  std::vector<LayerRecord> records;
  const std::size_t minRecords =
      std::max(kCounterRequests, samplesNeeded(0.50));
  const Clock::time_point start = Clock::now();
  std::size_t index = 0;
  while ((msSince(start) / 1e3 < cfg.seconds / 2 ||
          records.size() < minRecords) &&
         msSince(start) / 1e3 < kHardCapSeconds) {
    records.push_back(runTraced(pool[index % pool.size()], log));
    ++index;
  }
  const double tracedSeconds = msSince(start) / 1e3;
  const double rss = peakRssMb();  // before the oracle's explicit state
  out.attempted = plain.sent + records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t k = i % pool.size();
    if (outputs.find(k) == outputs.end()) {
      outputs.emplace(k, runRequest(pool[k]).output);
    }
    const Answer& a = records[i].answer;
    if (!a.ok) {
      out.fail("traced request failed: " + a.error, 1);
      continue;
    }
    if (a.output != outputs.at(k)) {
      out.fail("traced pipeline output differs from cli::runProtocol", 1);
    }
    ledger.record(std::to_string(k), a.output);
  }
  checkOutputs(cfg, pool, ledger, out);

  addLayerMetrics(records, log, m);
  std::vector<std::string> lintSources;
  for (const Request& r : pool) {
    if (std::find(lintSources.begin(), lintSources.end(), r.text) ==
        lintSources.end()) {
      lintSources.push_back(r.text);
    }
  }
  lintSources.resize(std::min<std::size_t>(lintSources.size(), 4));
  addLintMetric(lintSources, m);
  std::vector<std::string> expected;
  for (std::size_t k = 0; k < std::min<std::size_t>(2, pool.size()); ++k) {
    if (outputs.find(k) == outputs.end()) {
      outputs.emplace(k, runRequest(pool[k]).output);
    }
    expected.push_back(outputs.at(k));
  }
  m.add("process.peak_rss_mb", rss, "MiB");
  serveProbe(pool, expected, out);
  const double plainRate =
      static_cast<double>(plain.latencies.size()) / plain.seconds;
  const double tracedRate = static_cast<double>(records.size()) / tracedSeconds;
  m.add("trace.overhead_share", 1.0 - tracedRate / plainRate, "ratio");
  writeTrace(cfg, log);
  return out;
}

}  // namespace perfbench
