// serve_mix: an in-process serve::Server driven by one client thread over
// kConnections keep-alive connections, each with one request outstanding
// (a closed loop: a connection sends its next request when the previous
// reply arrives). With 2 workers that is 4 busy threads on 4 cores.
#include <poll.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "cli/driver.hpp"
#include "obs/json.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace stsyn;

constexpr std::size_t kConnections = 4;
constexpr unsigned kWorkers = 2;
/// First misses re-run literally through the batch path by the oracle
/// (the rest are compared per (instance, schedule) shape).
constexpr std::size_t kLiteralMisses = 8;
/// Misses replayed through the traced pipeline for the layer metrics.
constexpr std::size_t kReplayMisses = 16;
/// The timed phase runs in slices this long, each drained before the host
/// gauge runs; longer than the batch workloads' gauge period because every
/// drain idles some connections while the last replies arrive.
constexpr double kSliceSeconds = 0.25;
/// A reply slower than this is a hang, not a measurement.
constexpr int kReplyTimeoutMs = 60'000;

/// A miss and the program served for it, re-run literally by the oracle.
using LiteralMiss = std::pair<ServeRequest, std::string>;

/// Client-side counts of what this server was sent; reconciled with the
/// stats verb at the end of a run.
struct Tally {
  std::uint64_t frames = 0, inlineVerbs = 0, lint = 0, synthesize = 0,
                hits = 0, misses = 0;
};

/// One server plus the client's connections to it.
class Rig {
 public:
  explicit Rig(std::size_t connections) {
    serve::ServeOptions options;
    options.workers = kWorkers;
    // Capacities sized so that no request can be rejected: one
    // outstanding request per connection stays under both the queue
    // capacity and the per-connection in-flight cap, and the cache holds
    // every key a run can create, so the hit rate is fixed by the corpus.
    options.queueCapacity = 16;
    options.maxInflight = 8;
    options.cacheCapacity = 1u << 20;
    server_ = std::make_unique<serve::Server>(options);
    std::string error;
    if (!server_->start(error)) {
      throw std::runtime_error("cannot start server: " + error);
    }
    for (std::size_t i = 0; i < connections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) != 0) {
        if (fd >= 0) ::close(fd);
        throw std::runtime_error("cannot connect to server");
      }
      fds_.push_back(fd);
    }
  }
  ~Rig() {
    for (const int fd : fds_) ::close(fd);
    server_->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] int fd(std::size_t i) const { return fds_[i]; }
  [[nodiscard]] std::size_t connections() const { return fds_.size(); }
  [[nodiscard]] serve::Server& server() { return *server_; }

  void send(std::size_t conn, const std::string& frame, Verb verb) {
    serve::writeFrame(fds_[conn], frame);
    ++tally.frames;
    switch (verb) {
      case Verb::Ping:
        ++tally.inlineVerbs;
        break;
      case Verb::Lint:
        ++tally.lint;
        break;
      case Verb::Hit:
      case Verb::Miss:
        ++tally.synthesize;
        break;
    }
  }
  [[nodiscard]] std::string receive(std::size_t conn) {
    pollfd p{fds_[conn], POLLIN, 0};
    if (::poll(&p, 1, kReplyTimeoutMs) != 1) {
      throw std::runtime_error("no reply within the timeout");
    }
    std::string payload;
    if (!serve::readFrame(fds_[conn], payload)) {
      throw std::runtime_error("server closed the connection");
    }
    return payload;
  }
  [[nodiscard]] std::string call(std::size_t conn, const std::string& frame,
                                 Verb verb) {
    send(conn, frame, verb);
    return receive(conn);
  }

  Tally tally;

 private:
  std::unique_ptr<serve::Server> server_;
  std::vector<int> fds_;
};

/// Checks one reply in place and returns the output the oracle compares
/// later: the program (or weak histogram) of a synthesize reply, the SARIF
/// document of a lint reply. Throws on a malformed, failed or rejected
/// reply, or on a cache flag other than the verb expects. Tallies the
/// cache hit or miss the server should have counted.
std::string acceptReply(Rig& rig, Verb verb, const std::string& payload) {
  const std::optional<obs::JsonValue> doc = obs::parseJson(payload);
  const obs::JsonValue* ok = doc ? doc->find("ok") : nullptr;
  if (ok == nullptr || !ok->boolean) {
    throw std::runtime_error("reply not ok: " + payload.substr(0, 200));
  }
  switch (verb) {
    case Verb::Ping: {
      const obs::JsonValue* v = doc->find("verb");
      if (v == nullptr || v->str != "pong") throw std::runtime_error("no pong");
      return "pong";
    }
    case Verb::Lint: {
      const obs::JsonValue* code = doc->find("exit_code");
      if (code == nullptr || code->number != 0) {
        throw std::runtime_error("lint reported errors");
      }
      // The SARIF document is the raw tail of the envelope.
      const std::string marker = "\"sarif\":";
      const std::size_t at = payload.find(marker);
      if (at == std::string::npos) throw std::runtime_error("no sarif");
      return payload.substr(at + marker.size(),
                            payload.size() - at - marker.size() - 1);
    }
    case Verb::Hit:
    case Verb::Miss: {
      const obs::JsonValue* hit = doc->find("cache_hit");
      const obs::JsonValue* result = doc->find("result");
      if (hit == nullptr || result == nullptr) {
        throw std::runtime_error("malformed synthesize reply");
      }
      if (hit->boolean != (verb == Verb::Hit)) {
        throw std::runtime_error("unexpected cache_hit flag");
      }
      ++(hit->boolean ? rig.tally.hits : rig.tally.misses);
      const obs::JsonValue* code = result->find("exit_code");
      const obs::JsonValue* success = result->find("success");
      const obs::JsonValue* verified = result->find("verified");
      if (code == nullptr || code->number != 0 || success == nullptr ||
          !success->boolean || verified == nullptr || !verified->boolean) {
        throw std::runtime_error("synthesis failed");
      }
      const obs::JsonValue* program = result->find("program");
      const obs::JsonValue* console = result->find("console");
      if (program == nullptr || console == nullptr) {
        throw std::runtime_error("malformed synthesize result");
      }
      return program->str.empty() ? histogramFromConsole(console->str)
                                  : program->str;
    }
  }
  return {};
}

/// The daemon's counter ledger must match the client's tally exactly.
void reconcile(Rig& rig, RunResult& out) {
  // The stats request is an inline verb, tallied like a ping.
  const std::string reply = rig.call(0, R"({"verb":"stats"})", Verb::Ping);
  const std::optional<obs::JsonValue> doc = obs::parseJson(reply);
  const obs::JsonValue* counters = doc ? doc->find("counters") : nullptr;
  auto get = [&](const char* key) -> std::uint64_t {
    const obs::JsonValue* v = counters ? counters->find(key) : nullptr;
    return v == nullptr ? ~std::uint64_t{0}
                        : static_cast<std::uint64_t>(v->number);
  };
  const Tally& t = rig.tally;
  const std::pair<const char*, std::uint64_t> expect[] = {
      {"requests", t.frames},     {"inline", t.inlineVerbs},
      {"lint", t.lint},           {"synthesize", t.synthesize},
      {"completed", t.synthesize}, {"cache_hits", t.hits},
      {"cache_misses", t.misses}, {"rejected", 0},
      {"invalid", 0},             {"deadline_exceeded", 0}};
  for (const auto& [key, want] : expect) {
    if (get(key) != want) {
      out.fail(std::string("serve ledger: ") + key + " = " +
               std::to_string(get(key)) + ", client counted " +
               std::to_string(want));
    }
  }
}

/// Per-verb latency samples of a loop.
struct Samples {
  std::vector<double> all;
  std::vector<double> byVerb[4];
  std::size_t queueDepthMax = 0;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  ///< replies that passed the in-loop check
  double seconds = 0;
};

/// The closed loop: until `seconds` have passed and `minSamples` requests
/// were sent, every reply is answered by the connection's next request.
/// Replies are checked in place; outputs go to `ledger` for the oracle.
Samples driveLoop(Rig& rig, const ServeCorpus& corpus, std::uint64_t& next,
                  double seconds, std::size_t minSamples, OutputLedger& ledger,
                  std::vector<LiteralMiss>& literal,
                  SpanLog* log, RunResult& out) {
  struct Pending {
    ServeRequest req;
    Clock::time_point sent;
    int span = -1;
    bool live = false;
  };
  Samples s;
  std::vector<Pending> pending(rig.connections());
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto sendNext = [&](std::size_t c) {
    Pending& p = pending[c];
    p.req = corpus.request(next++);
    p.sent = Clock::now();
    if (log != nullptr) {
      p.span = log->begin(std::string("serve.") + toString(p.req.verb), -1,
                          toString(p.req.verb));
    }
    p.live = true;
    rig.send(c, p.req.payload, p.req.verb);
    ++s.sent;
  };
  for (std::size_t c = 0; c < rig.connections(); ++c) sendNext(c);
  std::vector<pollfd> fds(rig.connections());
  Clock::time_point last = start;
  for (;;) {
    std::size_t live = 0;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      fds[c] = {rig.fd(c), static_cast<short>(pending[c].live ? POLLIN : 0),
                0};
      live += pending[c].live ? 1 : 0;
    }
    if (live == 0) break;
    if (::poll(fds.data(), fds.size(), kReplyTimeoutMs) <= 0) {
      throw std::runtime_error("serve_mix: no reply within the timeout");
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (!pending[c].live ||
          (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      Pending& p = pending[c];
      const std::string payload = rig.receive(c);
      last = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(last - p.sent).count();
      if (log != nullptr) log->end(p.span);
      p.live = false;
      s.queueDepthMax = std::max(s.queueDepthMax, rig.server().queueDepth());
      try {
        const std::string output = acceptReply(rig, p.req.verb, payload);
        const std::string key = std::string(toString(p.req.verb)) + ":" +
                          std::to_string(p.req.shape);
        if (p.req.verb == Verb::Miss) {
          if (literal.size() < kLiteralMisses) {
            literal.emplace_back(p.req, output);
          }
          ledger.record(key, replaceAll(output, p.req.name,
                                        ServeCorpus::kMissPlaceholder));
        } else {
          ledger.record(key, output);
        }
        s.all.push_back(ms);
        s.byVerb[static_cast<int>(p.req.verb)].push_back(ms);
        ++s.answered;
      } catch (const std::exception& e) {
        out.fail(std::string("serve_mix reply: ") + e.what(), 1);
      }
      if (Clock::now() < deadline || s.sent < minSamples) sendNext(c);
    }
  }
  s.seconds = std::chrono::duration<double>(last - start).count();
  return s;
}

struct Prepared {
  std::unique_ptr<ServeCorpus> corpus;
  std::unique_ptr<Rig> rig;
  SetupTimer setup;
};

/// Set-up: generate the corpus, start the server, connect, prime the
/// cache with every hit key. Repeated kSetups times; the last is kept.
Prepared prepare(std::uint64_t seed, OutputLedger& ledger, RunResult& out) {
  Prepared p;
  for (int rep = 0; rep < kSetups; ++rep) {
    p.rig.reset();
    p.setup.begin();
    auto corpus = std::make_unique<ServeCorpus>(seed);
    auto rig = std::make_unique<Rig>(kConnections);
    const std::vector<Request>& hits = corpus->hits();
    for (std::size_t k = 0; k < hits.size(); k += rig->connections()) {
      const std::size_t n = std::min(rig->connections(), hits.size() - k);
      for (std::size_t c = 0; c < n; ++c) {
        rig->send(c, synthesizeFrame(hits[k + c]), Verb::Hit);
      }
      for (std::size_t c = 0; c < n; ++c) {
        try {
          // Priming computes each hit key once: the server counts a miss.
          const std::string output =
              acceptReply(*rig, Verb::Miss, rig->receive(c));
          if (rep + 1 == kSetups) {
            ledger.record("hit:" + std::to_string(k + c), output);
          }
        } catch (const std::exception& e) {
          out.fail(std::string("priming: ") + e.what(), 1);
        }
      }
    }
    p.setup.end();
    p.corpus = std::move(corpus);
    p.rig = std::move(rig);
  }
  p.setup.finish();
  return p;
}

/// The oracle: every served output must be byte-identical to the batch
/// path's output for the same request, and every distinct program must
/// be strongly stabilizing by explicit-state check.
void checkOutputs(const ServeCorpus& corpus, const OutputLedger& ledger,
                  const std::vector<LiteralMiss>& literal,
                  std::map<std::string, std::string>& expected,
                  RunResult& out) {
  std::vector<std::string> keys;
  for (const auto& [key, outputs] : ledger.seen()) keys.push_back(key);
  std::vector<std::string> want(keys.size());
  const std::size_t broken = parallelCount(keys.size(), 4, [&](std::size_t i) {
    const std::string& key = keys[i];
    const std::size_t colon = key.find(':');
    const std::string kind = key.substr(0, colon);
    const std::size_t shape = std::stoul(key.substr(colon + 1));
    if (kind == "ping") {
      want[i] = "pong";
      return true;
    }
    if (kind == "lint") {
      cli::Options opt;
      opt.lintFormat = "sarif";
      std::ostringstream sarif;
      // The daemon lints under this display path (serve/server.cpp).
      (void)cli::runLintSource(corpus.lintSources().at(shape), "request.stsyn",
                               opt, sarif);
      want[i] = sarif.str();
      return true;
    }
    const Request& r = kind == "hit" ? corpus.hits().at(shape)
                                     : corpus.missShapes().at(shape);
    const Answer a = runRequest(r);
    want[i] = a.output;
    return a.ok && explicitlyStabilizing(a.output);
  });
  if (broken != 0) out.fail("batch path or explicit check failed");
  for (std::size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = want[i];
  const std::size_t mismatched = ledger.failedAgainst(
      [&](const std::string& key) { return expected.at(key); });
  if (mismatched != 0) {
    out.fail("served outputs differ from the batch path", mismatched);
  }
  for (const auto& [req, served] : literal) {
    if (runRequest(corpus.missRequest(req.shape, req.name)).output != served) {
      out.fail("miss " + req.name + " differs from the batch path", 1);
    }
  }
}

double cacheHitRate(Rig& rig) {
  const double hits = static_cast<double>(rig.server().counters().cacheHits);
  const double misses =
      static_cast<double>(rig.server().counters().cacheMisses);
  return hits + misses == 0 ? 0.0 : hits / (hits + misses);
}

void addVerbMetrics(const Samples& s, Rig& rig, Metrics& m) {
  for (const Verb v : {Verb::Ping, Verb::Lint, Verb::Hit, Verb::Miss}) {
    m.add(std::string("serve.") + toString(v) + "_ms",
          median(s.byVerb[static_cast<int>(v)]), "ms");
  }
  m.add("serve.queue_depth_max", static_cast<double>(s.queueDepthMax),
        "count");
  m.add("serve.cache_hit_rate", cacheHitRate(rig), "ratio");
}

}  // namespace

RunResult runServeMix(const RunConfig& cfg) {
  RunResult out;
  OutputLedger ledger;
  Prepared prep = prepare(cfg.seed, ledger, out);
  Rig& rig = *prep.rig;
  const ServeCorpus& corpus = *prep.corpus;

  // Untimed warm-up: one lint (the inline path) on every connection.
  for (std::size_t c = 0; c < rig.connections(); ++c) {
    const std::size_t k = c % corpus.lintSources().size();
    ledger.record("lint:" + std::to_string(k),
                  acceptReply(rig, Verb::Lint,
                              rig.call(c, lintFrame(corpus.lintSources()[k]),
                                       Verb::Lint)));
  }

  std::uint64_t next = 0;
  std::vector<LiteralMiss> literal;
  Metrics& m = out.metrics;
  if (!cfg.trace) {
    // Slices until `seconds` have passed and p90 is reportable.
    HostGauge gauge;
    std::vector<double> latencies;
    std::vector<std::size_t> segments;
    std::uint64_t answered = 0;
    const std::size_t minSamples = samplesNeeded(0.90);
    const Clock::time_point start = Clock::now();
    while (msSince(start) / 1e3 < cfg.seconds || answered < minSamples) {
      gauge.mark();
      const Samples s = driveLoop(rig, corpus, next, kSliceSeconds, 1,
                                  ledger, literal, nullptr, out);
      out.attempted += s.sent;
      answered += s.answered;
      latencies.insert(latencies.end(), s.all.begin(), s.all.end());
      segments.resize(latencies.size(), gauge.segment());
    }
    gauge.mark();
    reconcile(rig, out);
    std::map<std::string, std::string> expected;
    checkOutputs(corpus, ledger, literal, expected, out);
    std::vector<double> scaled;
    for (std::size_t i = 0; i < latencies.size(); ++i) {
      scaled.push_back(latencies[i] * gauge.scale(segments[i]));
    }
    m.add("setup_s", prep.setup.scaledSeconds(), "s");
    out.unscaled.add("setup_s", prep.setup.rawSeconds(), "s");
    addEndToEnd(out, std::max(static_cast<double>(answered), 1.0), gauge,
                latencies, scaled);
    return out;
  }

  // Traced run: half the time untraced, half with a client span per
  // request, then the layer pipeline over a fixed replay of hits and the
  // first misses of the seeded stream.
  const Samples plain = driveLoop(rig, corpus, next, cfg.seconds / 2, 1,
                                  ledger, literal, nullptr, out);
  SpanLog log;
  const Samples traced = driveLoop(rig, corpus, next, cfg.seconds / 2,
                                   samplesNeeded(0.50), ledger, literal, &log,
                                   out);
  const double rss = peakRssMb();
  out.attempted = plain.sent + traced.sent;
  reconcile(rig, out);
  std::map<std::string, std::string> expected;
  checkOutputs(corpus, ledger, literal, expected, out);

  std::vector<Request> replay = corpus.hits();
  std::vector<std::string> replayKeys;
  for (std::size_t k = 0; k < replay.size(); ++k) {
    replayKeys.push_back("hit:" + std::to_string(k));
  }
  const std::size_t replayed = replay.size() + kReplayMisses;
  for (std::uint64_t i = 0; replay.size() < replayed; ++i) {
    const ServeRequest r = corpus.request(i);
    if (r.verb != Verb::Miss) continue;
    replay.push_back(corpus.missShapes()[r.shape]);
    replayKeys.push_back("miss:" + std::to_string(r.shape));
  }
  std::vector<LayerRecord> records;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    records.push_back(runTraced(replay[i], log));
    const LayerRecord& rec = records.back();
    const auto want = expected.find(replayKeys[i]);
    const std::string batch = want != expected.end()
                                  ? want->second
                                  : runRequest(replay[i]).output;
    if (!rec.answer.ok || rec.answer.output != batch) {
      out.fail("traced pipeline output differs from cli::runProtocol", 1);
    }
  }
  out.attempted += records.size();
  addLayerMetrics(records, log, m);
  addLintMetric(corpus.lintSources(), m);
  m.add("process.peak_rss_mb", rss, "MiB");
  addVerbMetrics(traced, rig, m);
  const double plainRate = static_cast<double>(plain.answered) / plain.seconds;
  const double tracedRate =
      static_cast<double>(traced.answered) / traced.seconds;
  m.add("trace.overhead_share", 1.0 - tracedRate / plainRate, "ratio");
  writeTrace(cfg, log);
  return out;
}

void serveProbe(const std::vector<Request>& pool,
                const std::vector<std::string>& expected, RunResult& out) {
  constexpr std::size_t kProbeKeys = 2;
  constexpr int kHitRepeats = 3;
  constexpr int kLints = 5;
  constexpr int kPings = 20;
  Rig rig(1);
  Samples s;
  auto timed = [&](Verb verb, const std::string& frame,
                   const std::string& want) {
    const Clock::time_point t = Clock::now();
    const std::string reply = rig.call(0, frame, verb);
    const double ms = msSince(t);
    s.queueDepthMax = std::max(s.queueDepthMax, rig.server().queueDepth());
    try {
      const std::string output = acceptReply(rig, verb, reply);
      if (!want.empty() && output != want) {
        throw std::runtime_error("served output differs from the batch path");
      }
      s.byVerb[static_cast<int>(verb)].push_back(ms);
    } catch (const std::exception& e) {
      out.fail(std::string("serve probe: ") + e.what(), 1);
    }
    ++out.attempted;
  };
  for (std::size_t k = 0; k < std::min(kProbeKeys, pool.size()); ++k) {
    const std::string frame = synthesizeFrame(pool[k]);
    timed(Verb::Miss, frame, expected[k]);
    for (int i = 0; i < kHitRepeats; ++i) timed(Verb::Hit, frame, expected[k]);
  }
  for (int i = 0; i < kLints; ++i) {
    timed(Verb::Lint, lintFrame(pool[0].text), "");
  }
  for (int i = 0; i < kPings; ++i) timed(Verb::Ping, R"({"verb":"ping"})", "");
  reconcile(rig, out);
  addVerbMetrics(s, rig, out.metrics);
}

void addLintMetric(const std::vector<std::string>& sources, Metrics& m) {
  constexpr int kRepeats = 5;
  cli::Options opt;
  opt.lintFormat = "sarif";
  std::vector<double> times;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::string& source : sources) {
      std::ostringstream sarif;
      const Clock::time_point t = Clock::now();
      (void)cli::runLintSource(source, "request.stsyn", opt, sarif);
      times.push_back(msSince(t));
    }
  }
  m.add("analysis.lint_ms", median(times), "ms");
}

}  // namespace perfbench
