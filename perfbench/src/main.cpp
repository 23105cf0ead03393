// perfbench: the stsyn end-to-end benchmark.
//
//   stsyn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--oracle-cache FILE]
//
// Prints the effective library configuration, a metric table, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0 (times scaled by the host gauge;
// the table also lists them unscaled), the per-layer metrics with
// --trace 1. Exit status 0 whenever that line is printed; 2 on bad usage
// or a refused environment; 1 when the run could not finish.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "symbolic/encoding.hpp"
#include "symbolic/frontier.hpp"

namespace {

int usage() {
  std::cerr << "usage: stsyn_perfbench --workload "
               "strong_matching|strong_coloring|weak_matching|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--oracle-cache FILE]\n";
  return 2;
}

bool parseSeed(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return !s.empty() && s[0] != '-' && *end == '\0';
}

bool parseNumber(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && *end == '\0' && out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    double n = 0;
    if (flag == "--workload") {
      const auto w = parseWorkload(value);
      if (!w) return usage();
      cfg.workload = *w;
      haveWorkload = true;
    } else if (flag == "--seed" && parseSeed(value, cfg.seed)) {
    } else if (flag == "--seconds" && parseNumber(value, n) && n > 0) {
      cfg.seconds = n;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      cfg.trace = value == "1";
    } else if (flag == "--trace-out") {
      cfg.traceOut = value;
    } else if (flag == "--oracle-cache") {
      cfg.oracleCache = value;
    } else {
      return usage();
    }
  }
  if (!haveWorkload || argc % 2 == 0) return usage();

  // Runs use library defaults; an inherited override would silently
  // measure another configuration than the baseline.
  for (const char* var : {"STSYN_IMAGE_WORKERS", "STSYN_IMAGE_POLICY",
                          "STSYN_REORDER", "STSYN_VAR_ORDER"}) {
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') {
      std::cerr << "stsyn_perfbench: refusing to run with " << var << "=" << v
                << " set\n";
      return 2;
    }
  }
  // A client socket that vanishes must not kill the in-process server.
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "perfbench " << toString(cfg.workload) << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace
            << " image_policy="
            << stsyn::symbolic::toString(stsyn::symbolic::defaultImagePolicy())
            << " image_workers=" << stsyn::symbolic::defaultImageWorkers()
            << " var_order="
            << stsyn::symbolic::toString(stsyn::symbolic::defaultVarOrder())
            << " reorder=off\n";
  RunResult r;
  try {
    r = cfg.workload == Workload::ServeMix ? runServeMix(cfg) : runBatch(cfg);
  } catch (const std::exception& e) {
    std::cerr << "stsyn_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (cfg.trace) {
    // The host's speed at the end of the run, for reading the unscaled
    // layer times against the scaled end-to-end ones.
    HostGauge gauge;
    for (int i = 0; i < 5; ++i) gauge.mark();
    r.metrics.add("host.gauge_ms", gauge.medianMs(), "ms");
  }
  for (const std::string& p : r.problems) {
    std::cerr << "stsyn_perfbench: " << p << "\n";
  }
  std::cout << r.metrics.table();
  if (!r.unscaled.table().empty()) {
    std::cout << "unscaled:\n" << r.unscaled.table();
  }
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << r.metrics.json() << "}" << std::endl;
  return 0;
}
