#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearestRank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::domain_error("metric is not finite");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (!(q > 0.0 && q < 1.0)) throw std::domain_error("quantile outside (0,1)");
  const std::size_t n = values.size();
  if (n == 0 || n - nearestRank(n, q) < kMinBeyond) {
    std::ostringstream msg;
    msg << "p" << q * 100 << " of " << n << " samples has fewer than "
        << kMinBeyond << " samples beyond it";
    throw std::domain_error(msg.str());
  }
  const std::size_t rank = nearestRank(n, q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t samplesNeeded(double q) {
  std::size_t n = kMinBeyond;
  while (n - nearestRank(n, q) < kMinBeyond) ++n;
  return n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (const Entry& e : entries_) {
    if (out.size() > 1) out += ", ";
    out += stsyn::obs::jsonQuote(e.name) + ": {\"value\": " + number(e.value) +
           ", \"unit\": " + stsyn::obs::jsonQuote(e.unit) + "}";
  }
  return out + "}";
}

std::string Metrics::table() const {
  std::ostringstream out;
  for (const Entry& e : entries_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-40s %14.4f %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out << line;
  }
  return out.str();
}

double processCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(u.ru_utime) + seconds(u.ru_stime);
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
