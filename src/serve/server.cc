#include "serve/server.h"

#include <climits>
#include <cstdlib>
#include <string>

#include "util/check.h"
#include "util/string_utils.h"

namespace elitenet {
namespace serve {

ServeStats ServeLines(FrontDoor* door, std::FILE* in, std::FILE* out) {
  EN_CHECK(door != nullptr);
  EN_CHECK(in != nullptr);
  EN_CHECK(out != nullptr);
  ServeStats stats;
  std::string line;
  int c;
  bool eof = false;
  while (!eof) {
    line.clear();
    while ((c = std::fgetc(in)) != EOF && c != '\n') {
      line += static_cast<char>(c);
    }
    if (c == EOF) {
      eof = true;
      if (line.empty()) break;
    }
    const std::string_view stripped = util::StripAsciiWhitespace(line);
    if (stripped.empty()) continue;
    if (stripped.front() == '#') {
      // Admin channel: recognized verbs are answered (off the query fast
      // path — they only read telemetry rings and counters); anything
      // else keeps working as a comment.
      auto cmd = ParseAdminLine(stripped);
      if (cmd.ok()) {
        ++stats.admin;
        const std::string json = door->AdminResponse(*cmd);
        std::fprintf(out, "%s\n", json.c_str());
        std::fflush(out);
      } else if (cmd.status().code() == StatusCode::kInvalidArgument) {
        ++stats.admin;
        ++stats.errors;
        std::string json = "{\"type\":\"error\",\"code\":\"";
        json += StatusCodeToString(cmd.status().code());
        json += "\",\"message\":\"";
        json += JsonEscape(cmd.status().message());
        json += "\"}";
        std::fprintf(out, "%s\n", json.c_str());
        std::fflush(out);
      }
      continue;
    }
    if (stripped == "quit") break;
    const QueryResponse resp = door->ExecuteLine(stripped);
    ++stats.requests;
    if (!resp.ok) ++stats.errors;
    if (resp.degraded) ++stats.degraded;
    std::fprintf(out, "%s\n", resp.json.c_str());
    std::fflush(out);
  }
  return stats;
}

bool ParseBoundedUint(std::string_view value, uint64_t lo, uint64_t hi,
                      uint64_t* out) {
  uint64_t v = 0;
  if (!util::ParseUint64(value, &v) || v < lo || v > hi) return false;
  *out = v;
  return true;
}

namespace {

// Per-field bounds: each value must fit the field it lands in, and
// --slow-ms must survive the conversion to microseconds.
constexpr uint64_t kMaxIntervalMs = INT_MAX;
constexpr uint64_t kMaxRecorder = uint64_t{1} << 24;
constexpr uint64_t kMaxSlowMs = UINT64_MAX / 1000;
constexpr uint64_t kMaxSample = UINT32_MAX;

}  // namespace

bool ParseServeFlag(std::string_view arg, EngineOptions* options) {
  EN_CHECK(options != nullptr);
  uint64_t v = 0;
  if (arg.rfind("--metrics=", 0) == 0) {
    options->metrics_path = std::string(arg.substr(10));
    return true;
  }
  if (arg.rfind("--metrics-interval=", 0) == 0 &&
      ParseBoundedUint(arg.substr(19), 0, kMaxIntervalMs, &v)) {
    options->metrics_interval_ms = static_cast<int>(v);
    return true;
  }
  if (arg.rfind("--flight-recorder=", 0) == 0 &&
      ParseBoundedUint(arg.substr(18), 0, kMaxRecorder, &v)) {
    options->telemetry.recorder_capacity = static_cast<size_t>(v);
    return true;
  }
  if (arg.rfind("--slow-ms=", 0) == 0 &&
      ParseBoundedUint(arg.substr(10), 0, kMaxSlowMs, &v)) {
    options->telemetry.slow_us = v * 1000;
    return true;
  }
  if (arg.rfind("--sample=", 0) == 0 &&
      ParseBoundedUint(arg.substr(9), 0, kMaxSample, &v)) {
    options->telemetry.sample_every = static_cast<uint32_t>(v);
    return true;
  }
  if (arg == "--no-telemetry") {
    options->telemetry.enabled = false;
    return true;
  }
  return false;
}

void ApplyServeEnv(EngineOptions* options) {
  EN_CHECK(options != nullptr);
  uint64_t v = 0;
  if (const char* env = std::getenv("ELITENET_METRICS");
      env != nullptr && *env != '\0') {
    options->metrics_path = env;
  }
  if (const char* env = std::getenv("ELITENET_METRICS_INTERVAL_MS");
      env != nullptr && ParseBoundedUint(env, 0, kMaxIntervalMs, &v)) {
    options->metrics_interval_ms = static_cast<int>(v);
  }
  if (const char* env = std::getenv("ELITENET_FLIGHT_RECORDER");
      env != nullptr && ParseBoundedUint(env, 0, kMaxRecorder, &v)) {
    options->telemetry.recorder_capacity = static_cast<size_t>(v);
  }
  if (const char* env = std::getenv("ELITENET_SLOW_MS");
      env != nullptr && ParseBoundedUint(env, 0, kMaxSlowMs, &v)) {
    options->telemetry.slow_us = v * 1000;
  }
}

}  // namespace serve
}  // namespace elitenet
