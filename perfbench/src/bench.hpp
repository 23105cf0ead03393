// Shared declarations of the stsyn end-to-end benchmark (perfbench).
//
// The benchmark drives the library from outside, through the same public
// calls the stsyn frontends make: lang::parseProtocol + cli::runProtocol
// for the batch workloads, an in-process serve::Server for serve_mix, and
// — in the separate traced run — each layer's public function called one
// at a time (pipeline.cpp). README.md in this directory explains the
// workloads and what each metric is expected to move.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

enum class Workload { StrongMatching, StrongColoring, WeakMatching, ServeMix };

[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);
[[nodiscard]] const char* toString(Workload w);

/// splitmix64. The benchmark owns its generator so that its inputs depend
/// on the seed alone, never on a library change.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// A generator for element `index` of a seeded stream, independent of how
/// many other elements were drawn before it.
[[nodiscard]] inline Rng streamRng(std::uint64_t seed, std::uint64_t stream,
                                   std::uint64_t index) {
  Rng mix(seed ^ (stream * 0xd1342543de82ef95ULL));
  return Rng(mix.next() ^ (index * 0x9e3779b97f4a7c15ULL));
}

// ---------------------------------------------------------------------------
// Corpus (corpus.cpp)

/// One synthesis request as the program receives it: .stsyn text plus the
/// options a `stsyn` command line or a serve request would carry.
struct Request {
  std::string text;
  std::string schedule;  ///< --schedule argument; empty = identity
  bool weak = false;
};

/// The request pool of a batch workload. A run sends pool[0], pool[1], ...
/// and wraps around. Same seed, same pool.
[[nodiscard]] std::vector<Request> batchPool(Workload w, std::uint64_t seed);

/// What serve_mix sends. Request i's kind and content depend only on
/// (seed, i); miss names are unique, so a miss never hits the cache.
enum class Verb { Ping, Lint, Hit, Miss };
[[nodiscard]] const char* toString(Verb v);

struct ServeRequest {
  Verb verb = Verb::Ping;
  std::string payload;  ///< the JSON request frame
  /// Hit: index into hits; Lint: index into lintSources; Miss: index into
  /// missShapes. Unused for Ping.
  std::size_t shape = 0;
  std::string name;  ///< Miss: the unique protocol name
};

class ServeCorpus {
 public:
  explicit ServeCorpus(std::uint64_t seed);

  [[nodiscard]] ServeRequest request(std::uint64_t index) const;

  /// Synthesize requests primed into the cache during set-up.
  [[nodiscard]] const std::vector<Request>& hits() const { return hits_; }
  [[nodiscard]] const std::vector<std::string>& lintSources() const {
    return lintSources_;
  }
  /// A miss's (instance, schedule) pair rendered under kMissPlaceholder;
  /// a miss request is its shape with the placeholder renamed.
  [[nodiscard]] const std::vector<Request>& missShapes() const {
    return missShapes_;
  }
  /// The request a miss was drawn as (its shape under its unique name).
  [[nodiscard]] Request missRequest(std::size_t shape,
                                    const std::string& name) const;

  static constexpr const char* kMissPlaceholder = "miss_placeholder";

 private:
  std::uint64_t seed_;
  std::vector<Request> hits_;
  std::vector<std::string> lintSources_;
  std::vector<Request> missShapes_;
};

/// The JSON frame of a synthesize request for `r`.
[[nodiscard]] std::string synthesizeFrame(const Request& r);
/// The JSON frame of a lint request for `source`.
[[nodiscard]] std::string lintFrame(const std::string& source);

/// Replaces every occurrence of `from` in `text` by `to`.
[[nodiscard]] std::string replaceAll(std::string text, std::string_view from,
                                     std::string_view to);

// ---------------------------------------------------------------------------
// Samples (sample.cpp)

/// The q-quantile (0 < q < 1) of `values` by nearest rank. Throws
/// std::domain_error when fewer than kMinBeyond samples lie beyond it: a
/// tail read from fewer samples is noise, not a measurement.
inline constexpr std::size_t kMinBeyond = 10;
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// Samples a run needs for percentile(q) to be reportable.
[[nodiscard]] std::size_t samplesNeeded(double q);
/// Plain median (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Name → (value, unit), printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;
  /// Human-readable "name = value unit" lines.
  [[nodiscard]] std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peakRssMb();

// ---------------------------------------------------------------------------
// Host-speed gauge (gauge.cpp)

/// Scales times measured on a shared host to a reference host speed.
///
/// On the 4-core host this benchmark was defined on, the same request
/// runs up to 1.5x slower for tens of seconds at a time, and its CPU time
/// moves with its wall time. A fixed computation of the benchmark's own,
/// independent of the library (hashed inserts into a fresh
/// std::unordered_map), slows down with it: over 10 s windows, request
/// latency varied by a coefficient of 0.09-0.12 and latency ÷ gauge time
/// by 0.02.
///
/// The timed phase is cut into segments of about kGaugeEveryMs. The gauge
/// runs between segments, untimed. Every time measured in segment i is
/// multiplied by scale(i) = kGaugeReferenceMs ÷ (gauge time around the
/// segment). A library change does not move the gauge, so it moves a
/// scaled time as much as the raw one.
inline constexpr double kGaugeEveryMs = 100;
/// The gauge's time on the reference host; scaled times read as times on
/// a host where one gauge run takes this long.
inline constexpr double kGaugeReferenceMs = 1.5;

class HostGauge {
 public:
  /// Closes the open segment (if any), runs the gauge, opens the next one.
  void mark();
  /// mark() when no segment is open or the open one has lasted
  /// kGaugeEveryMs.
  void tick();
  /// The open segment. Valid after the first mark().
  [[nodiscard]] std::size_t segment() const { return gaugeMs_.size() - 1; }
  /// The factor for times measured in closed segment i.
  [[nodiscard]] double scale(std::size_t i) const;
  /// Wall and CPU seconds of the closed segments, scaled or raw.
  [[nodiscard]] double seconds(bool scaled) const;
  [[nodiscard]] double cpuSeconds(bool scaled) const;
  /// Median gauge run time in ms.
  [[nodiscard]] double medianMs() const { return median(gaugeMs_); }

 private:
  struct Segment {
    double seconds;
    double cpuSeconds;
  };
  double runKernel();
  [[nodiscard]] double smoothed(std::size_t i) const;

  std::vector<double> gaugeMs_;
  std::vector<Segment> segments_;
  Clock::time_point segmentStart_;
  double segmentCpu_ = 0;
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result alive
};

// ---------------------------------------------------------------------------
// Requests through cli::runProtocol, and the traced layer-by-layer pipeline
// (pipeline.cpp)

/// A request's checked output: the stabilized program text for strong
/// synthesis, the rank histogram ("n0,n1,...") for weak synthesis.
struct Answer {
  bool ok = false;  ///< exit 0, success and (strong) verified
  std::string output;
  std::string error;
};

/// The request path of the CLI and the serve workers:
/// lang::parseProtocol then cli::runProtocol with library defaults.
[[nodiscard]] Answer runRequest(const Request& r);

/// Extracts the weak rank histogram from cli::runProtocol's narration.
[[nodiscard]] std::string histogramFromConsole(const std::string& console);

/// In-memory span log; written out once, at the end of a traced run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double startMs = 0;
    double endMs = 0;
    std::string tag;
  };
  /// Opens a span; returns its id.
  int begin(const std::string& name, int parent, std::string tag = {});
  void end(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time covered by direct children, per span.
  [[nodiscard]] std::vector<double> selfTimes() const;
  /// Chrome trace_event JSON.
  [[nodiscard]] std::string chromeJson() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Deltas of bdd::Manager::stats() around one layer call.
struct BddDelta {
  double cacheLookups = 0;
  double cacheHits = 0;
  double uniqueProbes = 0;
  double gcRuns = 0;
  double peakLiveNodes = 0;  ///< manager high-water mark after the call
};

/// One traced request: per-layer wall times (ms), the synthesis stats the
/// library reports, and the BDD counters around each call.
struct LayerRecord {
  double requestMs = 0, parseMs = 0, encodeMs = 0, heuristicMs = 0,
         rankingMs = 0, verifyMs = 0, depthMs = 0, renderMs = 0;
  double sccMs = 0, sccSteps = 0, sccCalls = 0, sccFastHits = 0,
         frontierSteps = 0, preimageOps = 0, imageOps = 0;
  BddDelta heuristic, verify, ranking;
  Answer answer;
};

/// cli::runProtocol's strong/weak request path, one layer call at a time,
/// each wrapped in a span under a per-request root span.
[[nodiscard]] LayerRecord runTraced(const Request& r, SpanLog& log);

/// Per-layer metrics from traced records. Times are medians over all
/// records; the deterministic counters are medians over the first
/// kCounterRequests records, which every traced run completes.
inline constexpr std::size_t kCounterRequests = 8;
void addLayerMetrics(const std::vector<LayerRecord>& records,
                     const SpanLog& log, Metrics& m);

// ---------------------------------------------------------------------------
// Output oracle (oracle.cpp)

/// Re-parses a synthesized program and checks it strongly stabilizing
/// with the explicit-state engine.
[[nodiscard]] bool explicitlyStabilizing(const std::string& program);

/// Programs the explicit-state engine already accepted in this checkout,
/// kept in a file so that later runs check only new programs. A program
/// is a pure function of the request and the library, and the verdict a
/// pure function of the program's bytes, so a remembered acceptance is
/// as good as a repeated one; a coloring(12) program takes ~6 s to check.
/// Thread-safe. An empty path keeps nothing.
class VerdictCache {
 public:
  explicit VerdictCache(std::string path);
  /// Known-good, or checked now with explicitlyStabilizing().
  [[nodiscard]] bool stabilizing(const std::string& program);
  /// Appends the programs accepted since loading to the file.
  void save() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::set<std::string> known_;
  std::vector<std::string> added_;
};

/// The weak rank histogram of matching(13), computed once with
/// explicitstate::addWeakConvergenceExplicit and pinned here.
[[nodiscard]] const std::string& pinnedWeakHistogram();
/// The same histogram recomputed by the explicit engine (about 12 s).
[[nodiscard]] std::string explicitWeakHistogram(const std::string& text);

/// Runs `check` on every item with up to `threads` threads; returns how
/// many items failed.
[[nodiscard]] std::size_t parallelCount(
    std::size_t items, unsigned threads,
    const std::function<bool(std::size_t)>& check);

/// Outputs seen per request key, counted, so the oracle checks each
/// distinct output once and can still charge every request that got it.
class OutputLedger {
 public:
  void record(const std::string& key, const std::string& output) {
    ++seen_[key][output];
  }
  [[nodiscard]] const std::map<std::string,
                               std::map<std::string, std::size_t>>&
  seen() const {
    return seen_;
  }
  /// Requests whose output differs from expected(key).
  [[nodiscard]] std::size_t failedAgainst(
      const std::function<std::string(const std::string&)>& expected) const;
  /// Requests whose output fails `check`, run once per distinct output on
  /// up to `threads` threads.
  [[nodiscard]] std::size_t failedUnless(
      const std::function<bool(const std::string&)>& check,
      unsigned threads) const;

 private:
  std::map<std::string, std::map<std::string, std::size_t>> seen_;
};

// ---------------------------------------------------------------------------
// Workload runs (batch.cpp, serve_mix.cpp)

struct RunConfig {
  Workload workload = Workload::StrongMatching;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceOut;  ///< where a traced run writes its spans
  std::string oracleCache;  ///< VerdictCache file; empty = none
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// The unscaled end-to-end figures, printed in the table only.
  Metrics unscaled;
  /// Why `correct` is false, for the log.
  std::vector<std::string> problems;

  void fail(const std::string& why, std::uint64_t requests = 0) {
    correct = false;
    failed += requests;
    problems.push_back(why);
  }
};

/// The end-to-end metrics of a timed phase: scaled by the host gauge into
/// out.metrics, unscaled into out.unscaled. `latencies` and `scaled` hold
/// the answered requests' latencies, raw and scaled.
void addEndToEnd(RunResult& out, double answered, const HostGauge& gauge,
                 const std::vector<double>& latencies,
                 const std::vector<double>& scaled);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// Times the set-ups of a run, each one between two gauge runs.
class SetupTimer {
 public:
  void begin();
  void end();
  /// After the last end(): the median set-up time in seconds, scaled by
  /// the gauge runs around each set-up (the setup_s metric) and raw.
  void finish();
  [[nodiscard]] double scaledSeconds() const { return scaled_; }
  [[nodiscard]] double rawSeconds() const { return raw_; }

 private:
  HostGauge gauge_;
  Clock::time_point start_;
  std::vector<double> seconds_;
  std::vector<std::size_t> segments_;
  double scaled_ = 0;
  double raw_ = 0;
};

[[nodiscard]] RunResult runBatch(const RunConfig& cfg);
[[nodiscard]] RunResult runServeMix(const RunConfig& cfg);

/// For the batch workloads' traced run: sends `pool[0..1]` as synthesize
/// misses then hits, lints and pings through an in-process server and
/// adds the serve.* per-layer metrics. `expected[i]` is the batch path's
/// output for pool[i].
void serveProbe(const std::vector<Request>& pool,
                const std::vector<std::string>& expected, RunResult& out);

/// Writes the spans of a traced run to cfg.traceOut, when set.
void writeTrace(const RunConfig& cfg, const SpanLog& log);

/// analysis.lint_ms: cli::runLintSource over `sources`.
void addLintMetric(const std::vector<std::string>& sources, Metrics& m);

}  // namespace perfbench
