// Line-protocol front-end: newline-delimited requests in, one JSON object
// per line out. This is the transport the `elitenet_serve` example and the
// `elitenet_cli serve` subcommand share — they differ only in how the
// graph is loaded and which FILE*s are wired up (stdin/stdout for both
// today; a socket accept loop can hand its FILE*s straight in).

#ifndef ELITENET_SERVE_SERVER_H_
#define ELITENET_SERVE_SERVER_H_

#include <cstdint>
#include <cstdio>
#include <string_view>

#include "serve/engine.h"
#include "serve/front_door.h"

namespace elitenet {
namespace serve {

struct ServeStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t admin = 0;  ///< '#'-prefixed admin commands answered.
};

/// Reads requests from `in` until EOF or a "quit" line, answering each on
/// `out` (flushed per line so interactive pipes see responses
/// immediately). Blank lines are skipped. '#' lines are admin commands
/// when the verb is recognized (#stats, #healthz, #recent [n], #slow [n],
/// #trace <id> — each answered with one JSON line off the query fast
/// path) and comments otherwise, preserving the old comment syntax.
/// Malformed requests and bad admin arguments produce
/// {"type":"error",...} lines, never a crash or a silent drop. Returns
/// tallies for the session. Either backend serves through its front
/// door: a QueryEngine or a ShardedRouter (identical wire protocol and,
/// by the router's contract, identical response bytes).
ServeStats ServeLines(FrontDoor* door, std::FILE* in, std::FILE* out);

/// The checked numeric parse every serving flag goes through: true (and
/// `*out` set) when `value` is a decimal integer in [lo, hi]; false on
/// empty, non-numeric, overflowing or out-of-range input.
bool ParseBoundedUint(std::string_view value, uint64_t lo, uint64_t hi,
                      uint64_t* out);

/// Parses one telemetry-related command-line flag shared by
/// `elitenet_serve` and `elitenet_cli serve` into `options`:
///   --metrics=<path> --metrics-interval=<ms> --flight-recorder=<K>
///   --slow-ms=<t> --sample=<N> --no-telemetry
/// Returns false (options untouched) when `arg` is not one of these or
/// its value does not fit the field.
bool ParseServeFlag(std::string_view arg, EngineOptions* options);

/// Applies the telemetry environment fallbacks (ELITENET_METRICS,
/// ELITENET_METRICS_INTERVAL_MS, ELITENET_FLIGHT_RECORDER,
/// ELITENET_SLOW_MS) — StudyConfig parity for the serving front-ends.
/// Call before flag parsing so explicit flags win.
void ApplyServeEnv(EngineOptions* options);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_SERVER_H_
