#include "cli/options.hpp"

#include <cstring>
#include <ostream>

namespace stsyn::cli {

std::optional<std::uint64_t> parseUint(std::string_view s,
                                       std::uint64_t maxValue) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  if (value > maxValue) return std::nullopt;
  return value;
}

int usage(std::ostream& err) {
  err << "usage: stsyn <protocol.stsyn> [--weak] [--schedule P1,P0,...]"
         " [--max-pass N] [--no-greedy] [--image-policy"
         " monolithic|perprocess|auto|both]"
         " [--var-order declared|static] [--orbit-prune]"
         " [--timeout MS] [--print] [--quiet]"
         " [--stats-json FILE] [--trace FILE]\n"
         "       stsyn lint <protocol.stsyn> [--werror] [--no-symbolic]"
         " [--format=sarif|text]\n"
         "       stsyn serve [--port N] [--workers N] [--queue N]"
         " [--cache N] [--cache-dir PATH] [--max-inflight N]\n";
  return 2;
}

namespace {

/// Reports a bad numeric flag value and returns false; the caller turns
/// that into the usage exit.
bool badNumber(std::ostream& err, const char* flag, const char* value,
               std::uint64_t maxValue) {
  err << "stsyn: " << flag << " expects an unsigned integer <= " << maxValue
      << ", got '" << value << "'\n";
  return false;
}

}  // namespace

int parseArgs(int argc, const char* const* argv, Options& out,
              std::ostream& err) {
  if (argc < 2) return usage(err);

  int argStart = 1;
  if (!std::strcmp(argv[1], "lint")) {
    out.mode = Mode::Lint;
    argStart = 2;
  } else if (!std::strcmp(argv[1], "serve")) {
    out.mode = Mode::Serve;
    argStart = 2;
  }

  const char* path = nullptr;
  unsigned portfolio = 0;
  std::string imagePolicyArg;
  std::string varOrderArg;
  bool weak = false;
  bool verifyOnly = false;

  // Strict unsigned flag parse: prints the diagnostic on failure.
  const auto uintFlag = [&](const char* flag, const char* value,
                            std::uint64_t maxValue,
                            std::uint64_t& target) -> bool {
    const auto parsed = parseUint(value, maxValue);
    if (!parsed.has_value()) return badNumber(err, flag, value, maxValue);
    target = *parsed;
    return true;
  };

  for (int i = argStart; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--weak")) {
      weak = true;
    } else if (!std::strcmp(a, "--verify")) {
      verifyOnly = true;
    } else if (!std::strcmp(a, "--lint")) {
      out.mode = Mode::Lint;
    } else if (!std::strcmp(a, "--werror")) {
      out.werror = true;
    } else if (!std::strcmp(a, "--no-symbolic")) {
      out.lintOptions.symbolic = false;
    } else if (!std::strncmp(a, "--format=", 9)) {
      out.lintFormat = a + 9;
      if (out.lintFormat != "text" && out.lintFormat != "sarif") {
        return usage(err);
      }
    } else if (!std::strcmp(a, "--portfolio") && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!uintFlag("--portfolio", argv[++i], kMaxPortfolioThreads, n)) {
        return usage(err);
      }
      portfolio = static_cast<unsigned>(n);
    } else if (!std::strcmp(a, "--print")) {
      out.print = true;
    } else if (!std::strcmp(a, "--quiet")) {
      out.quiet = true;
    } else if (!std::strcmp(a, "--no-greedy")) {
      out.strong.greedyCycleResolution = false;
    } else if (!std::strcmp(a, "--explain")) {
      out.explain = true;
    } else if (!std::strcmp(a, "--schedule") && i + 1 < argc) {
      out.scheduleArg = argv[++i];
    } else if (!std::strcmp(a, "--image-policy") && i + 1 < argc) {
      imagePolicyArg = argv[++i];
    } else if (!std::strcmp(a, "--var-order") && i + 1 < argc) {
      varOrderArg = argv[++i];
    } else if (!std::strcmp(a, "--orbit-prune")) {
      out.orbitPrune = true;
    } else if (!std::strcmp(a, "--output") && i + 1 < argc) {
      out.outputPath = argv[++i];
    } else if (!std::strcmp(a, "--stats-json") && i + 1 < argc) {
      out.statsPath = argv[++i];
    } else if (!std::strcmp(a, "--trace") && i + 1 < argc) {
      out.tracePath = argv[++i];
    } else if (!std::strcmp(a, "--max-pass") && i + 1 < argc) {
      const auto n = parseUint(argv[++i], 3);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --max-pass expects 1, 2 or 3, got '" << argv[i]
            << "'\n";
        return usage(err);
      }
      out.strong.maxPass = static_cast<int>(*n);
    } else if (!std::strcmp(a, "--timeout") && i + 1 < argc) {
      if (!uintFlag("--timeout", argv[++i], kMaxTimeoutMs, out.timeoutMs)) {
        return usage(err);
      }
    } else if (!std::strcmp(a, "--port") && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!uintFlag("--port", argv[++i], 65535, n)) return usage(err);
      out.servePort = static_cast<unsigned>(n);
    } else if (!std::strcmp(a, "--workers") && i + 1 < argc) {
      const auto n = parseUint(argv[++i], kMaxServeWorkers);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --workers expects 1.." << kMaxServeWorkers
            << ", got '" << argv[i] << "'\n";
        return usage(err);
      }
      out.serveWorkers = static_cast<unsigned>(*n);
    } else if (!std::strcmp(a, "--queue") && i + 1 < argc) {
      const auto n = parseUint(argv[++i], kMaxQueueCapacity);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --queue expects 1.." << kMaxQueueCapacity
            << ", got '" << argv[i] << "'\n";
        return usage(err);
      }
      out.serveQueueCapacity = static_cast<unsigned>(*n);
    } else if (!std::strcmp(a, "--cache") && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!uintFlag("--cache", argv[++i], kMaxCacheCapacity, n)) {
        return usage(err);
      }
      out.serveCacheCapacity = static_cast<unsigned>(n);
    } else if (!std::strcmp(a, "--cache-dir") && i + 1 < argc) {
      out.serveCacheDir = argv[++i];
      if (out.serveCacheDir.empty()) {
        err << "stsyn: --cache-dir expects a non-empty path\n";
        return usage(err);
      }
    } else if (!std::strcmp(a, "--max-inflight") && i + 1 < argc) {
      const auto n = parseUint(argv[++i], kMaxServeInflight);
      if (!n.has_value() || *n == 0) {
        err << "stsyn: --max-inflight expects 1.." << kMaxServeInflight
            << ", got '" << argv[i] << "'\n";
        return usage(err);
      }
      out.serveMaxInflight = static_cast<unsigned>(*n);
    } else if (a[0] == '-') {
      return usage(err);
    } else if (path == nullptr) {
      path = a;
    } else {
      return usage(err);
    }
  }

  if (out.mode == Mode::Serve) {
    if (path != nullptr) return usage(err);  // serve takes no protocol file
  } else {
    if (path == nullptr) return usage(err);
    out.path = path;
  }
  if (out.mode != Mode::Lint && out.mode != Mode::Serve) {
    if (weak && verifyOnly) return usage(err);
    if (weak) out.mode = Mode::Weak;
    if (verifyOnly) out.mode = Mode::Verify;
  }

  // Policies raced when --portfolio is active; a single entry otherwise.
  out.portfolio = portfolio;
  if (imagePolicyArg == "both") {
    if (portfolio == 0) {
      err << "stsyn: --image-policy both requires --portfolio\n";
      return 2;
    }
    out.policies = {symbolic::ImagePolicy::Monolithic,
                    symbolic::ImagePolicy::PerProcess};
  } else if (!imagePolicyArg.empty()) {
    const auto parsed = symbolic::parseImagePolicy(imagePolicyArg);
    if (!parsed.has_value()) {
      err << "stsyn: unknown --image-policy '" << imagePolicyArg
          << "' (expected monolithic|perprocess|auto|both)\n";
      return 2;
    }
    out.strong.imagePolicy = *parsed;
    out.policies = {*parsed};
  }
  if (!varOrderArg.empty()) {
    const auto parsed = symbolic::parseVarOrder(varOrderArg);
    if (!parsed.has_value()) {
      err << "stsyn: unknown --var-order '" << varOrderArg
          << "' (expected declared|static)\n";
      return 2;
    }
    out.encoding.varOrder = *parsed;
  }
  if (out.orbitPrune && portfolio == 0) {
    err << "stsyn: --orbit-prune requires --portfolio\n";
    return 2;
  }
  return -1;
}

}  // namespace stsyn::cli
