#include <algorithm>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kGaugeBuckets = std::size_t{1} << 16;
constexpr std::uint64_t kGaugeKeyMask = (std::uint64_t{1} << 20) - 1;
constexpr std::uint64_t kGaugeRounds = 3;
constexpr std::uint64_t kGaugeKeys = 30'000;

/// The splitmix64 finalizer.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double HostGauge::runKernel() {
  // Round 0 inserts kGaugeKeys hashed keys; later rounds hash the same
  // inputs shifted by 7, so they mostly update entries that exist.
  const Clock::time_point start = Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(kGaugeBuckets);
  for (std::uint64_t round = 0; round < kGaugeRounds; ++round) {
    for (std::uint64_t i = 0; i < kGaugeKeys; ++i) {
      table[mix(i + round * 7) & kGaugeKeyMask] += i;
    }
  }
  sink_ += table.size();
  return msSince(start);
}

void HostGauge::mark() {
  if (!gaugeMs_.empty()) {
    segments_.push_back({msSince(segmentStart_) / 1e3,
                         processCpuSeconds() - segmentCpu_});
  }
  gaugeMs_.push_back(runKernel());
  segmentCpu_ = processCpuSeconds();
  segmentStart_ = Clock::now();
}

void HostGauge::tick() {
  if (gaugeMs_.empty() || msSince(segmentStart_) >= kGaugeEveryMs) mark();
}

double HostGauge::smoothed(std::size_t i) const {
  // Median of the gauge and its two neighbours, so that one preempted
  // gauge run does not scale two segments.
  const std::size_t lo = i == 0 ? 0 : i - 1;
  const std::size_t hi = std::min(i + 2, gaugeMs_.size());
  return median(std::vector<double>(
      gaugeMs_.begin() + static_cast<std::ptrdiff_t>(lo),
      gaugeMs_.begin() + static_cast<std::ptrdiff_t>(hi)));
}

double HostGauge::scale(std::size_t i) const {
  return kGaugeReferenceMs / ((smoothed(i) + smoothed(i + 1)) / 2);
}

double HostGauge::seconds(bool scaled) const {
  double total = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    total += segments_[i].seconds * (scaled ? scale(i) : 1.0);
  }
  return total;
}

double HostGauge::cpuSeconds(bool scaled) const {
  double total = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    total += segments_[i].cpuSeconds * (scaled ? scale(i) : 1.0);
  }
  return total;
}

void SetupTimer::begin() {
  gauge_.mark();
  start_ = Clock::now();
}

void SetupTimer::end() {
  seconds_.push_back(msSince(start_) / 1e3);
  segments_.push_back(gauge_.segment());
}

void SetupTimer::finish() {
  gauge_.mark();
  std::vector<double> scaled;
  for (std::size_t i = 0; i < seconds_.size(); ++i) {
    scaled.push_back(seconds_[i] * gauge_.scale(segments_[i]));
  }
  scaled_ = median(scaled);
  raw_ = median(seconds_);
}

void addEndToEnd(RunResult& out, double answered, const HostGauge& gauge,
                 const std::vector<double>& latencies,
                 const std::vector<double>& scaled) {
  Metrics& m = out.metrics;
  m.add("norm_throughput_ops_s", answered / gauge.seconds(true), "1/s");
  m.add("norm_latency_p50_ms", percentile(scaled, 0.50), "ms");
  m.add("norm_latency_p90_ms", percentile(scaled, 0.90), "ms");
  m.add("norm_cpu_ms_per_op", gauge.cpuSeconds(true) * 1e3 / answered, "ms");
  Metrics& u = out.unscaled;
  u.add("throughput_ops_s", answered / gauge.seconds(false), "1/s");
  u.add("latency_p50_ms", percentile(latencies, 0.50), "ms");
  u.add("latency_p90_ms", percentile(latencies, 0.90), "ms");
  u.add("cpu_ms_per_op", gauge.cpuSeconds(false) * 1e3 / answered, "ms");
  u.add("gauge_ms", gauge.medianMs(), "ms");
}

}  // namespace perfbench
