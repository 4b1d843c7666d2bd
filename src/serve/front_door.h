// FrontDoor — the one request lifecycle every serving backend shares.
//
// A request meets the same bookkeeping whether a single engine or a
// sharded router answers it, so that bookkeeping lives here, once:
//
//   * the QoS executor (serve/scheduler.h) behind Submit: admission
//     control, priority dispatch, the queue-wait sketch;
//   * the result cache, keyed by the canonical request (plus, on live
//     engines, the epoch and resolved version). Only complete,
//     non-degraded, non-error responses are inserted, so a hit is always
//     byte-identical to a recompute;
//   * the telemetry path: request count, trace id and decide-once
//     sampling, span capture, the inflight gauge, the per-type latency
//     sketch and the flight-recorder RequestRecord;
//   * the admin verbs (#stats, #healthz, #recent, #slow, #trace,
//     #version, #overlay) and the background metrics exporter.
//
// Below it sits a narrow backend seam of two calls:
//
//   * ResolveSnapshot fixes what a request reads — the warm bundle and,
//     on a live engine, the MVCC snapshot captured at admission (Submit
//     resolves before queueing, so time spent queued never moves the
//     version a request observes). Static backends reject "@v" pins.
//   * Compute answers the request from that view; it never consults the
//     cache.
//
// QueryEngine (static and live, serve/engine.h) and ShardedRouter
// (serve/router.h) are the two implementations. Per request the front
// door makes exactly those two virtual calls.

#ifndef ELITENET_SERVE_FRONT_DOOR_H_
#define ELITENET_SERVE_FRONT_DOOR_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/centrality.h"
#include "core/fingerprint.h"
#include "serve/delta_overlay.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "serve/telemetry.h"
#include "util/deadline.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct WarmIndexes;

struct EngineOptions {
  /// Executor worker threads (Submit). Execute() always runs on the
  /// calling thread regardless.
  int threads = 1;
  /// Per-class admission caps for the QoS executor (serve/scheduler.h).
  QosOptions qos;
  /// Result-cache entries across all shards; 0 disables caching.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  analysis::PageRankOptions pagerank;
  core::FingerprintOptions fingerprint;
  /// Build the hub-label distance oracle at warmup so dist answers by
  /// label intersection instead of traversing. Construction falls back
  /// cleanly (dist reverts to bidirectional BFS) if the pruned labeling
  /// exceeds its size budget — see graph::HubLabelOptions.
  bool distance_oracle = true;
  /// When non-empty, Create() tries to restore the warm indexes from this
  /// `.widx` sidecar (keyed by graph checksum + index config) before
  /// computing them, and writes the sidecar back after a fresh build. A
  /// stale or corrupt sidecar degrades to a rebuild, never an error.
  std::string warm_index_path;
  /// Live telemetry plane (trace ids, flight recorder, latency sketches,
  /// SLO counters). Telemetry observes but never decides, so response
  /// bytes are identical with it enabled, disabled, or sampled.
  TelemetryOptions telemetry;
  /// When non-empty, a background exporter thread writes a JSON snapshot
  /// here (and Prometheus text to `metrics_path + ".prom"`) every
  /// metrics_interval_ms; also turns on util metrics recording.
  std::string metrics_path;
  int metrics_interval_ms = 1000;
};

struct QueryResponse {
  /// Single-line JSON. Errors render as {"type":"error",...}.
  std::string json;
  bool ok = true;
  /// True when a deadline cut the computation short; json carries the
  /// best bound found. Never cached.
  bool degraded = false;
  /// True when served from the result cache (diagnostic only — the bytes
  /// are identical either way, so this flag never appears in json).
  bool cache_hit = false;
};

/// What one request reads, fixed at admission by ResolveSnapshot.
struct ReadView {
  const WarmIndexes* warm = nullptr;
  /// The MVCC snapshot the request answers at; invalid() on static
  /// backends.
  LiveSnapshot snap;
};

class FrontDoor {
 public:
  virtual ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Synchronously answers `r` on the calling thread. Thread-safe; the
  /// shed caps apply only to Submit.
  QueryResponse Execute(const Request& r);

  /// Synchronous execution under an externally owned deadline.
  QueryResponse Execute(const Request& r, const util::Deadline& deadline);

  /// Parses one protocol line and answers it; parse failures become
  /// well-formed error responses (never a crash or empty line).
  QueryResponse ExecuteLine(std::string_view line);

  /// Enqueues `r` for the worker pool, subject to QoS admission control:
  /// a request whose class backlog is at its cap is shed — the future
  /// resolves immediately with the "overloaded" error response and the
  /// request never executes. The deadline starts counting at submission,
  /// so time spent queued burns budget — the behaviour a latency SLO
  /// wants.
  std::future<QueryResponse> Submit(const Request& r);

  int threads() const;

  /// Result-cache tallies since startup (also exported as the
  /// serve.cache.hit / serve.cache.miss metrics counters).
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;

  /// Drops every result-cache entry (tallies are preserved). Lets
  /// benchmarks replay cold-cache traffic against one long-lived server
  /// instead of rebuilding it per run.
  void ClearResultCache();

  /// Flips the telemetry plane's live master switch (responses are
  /// byte-identical either way). An A/B overhead measurement toggles
  /// this on one server so both arms share the same heap layout.
  void SetTelemetryEnabled(bool on) { telemetry_.set_enabled(on); }

  /// The telemetry plane (always present; inert when
  /// options.telemetry.enabled is false).
  const Telemetry& telemetry() const { return telemetry_; }

  /// Seconds spent building (or restoring) the warm state at startup.
  double warmup_seconds() const { return warmup_seconds_; }

  /// True when the warm indexes were restored from the `.widx` sidecar
  /// instead of computed (diagnostic; the served bytes are identical).
  bool warm_index_from_cache() const { return warm_from_cache_; }

  /// Front-door facts plus the backend's, for the admin/stats renderers.
  EngineStatsContext StatsContext() const;

  /// Answers one parsed admin command as a single JSON line.
  std::string AdminResponse(const AdminCommand& cmd) const;

 protected:
  explicit FrontDoor(const EngineOptions& options);

  /// Starts the executor and, when options.metrics_path is set, the
  /// exporter. Backends call it once they can answer requests.
  void Open();

  /// Stops the exporter, then drains the executor. Both call back into
  /// the backend, so every backend's destructor calls this first.
  void Close();

  const EngineOptions options_;
  double warmup_seconds_ = 0.0;
  bool warm_from_cache_ = false;

 private:
  /// The backend seam (see file comment).
  virtual Status ResolveSnapshot(const Request& r, ReadView* view) const = 0;
  virtual QueryResponse Compute(const Request& r,
                                const util::Deadline& deadline,
                                const ReadView& view) = 0;
  /// Fills the backend's facts: graph identity, oracle state, the live
  /// overlay, the shards.
  virtual void AddStats(EngineStatsContext* ctx) const = 0;

  /// Pre-execution facts about one request.
  struct Admission {
    uint64_t seq = 0;  ///< Telemetry sequence (0 = claim at execution).
    uint64_t queue_wait_us = 0;
    bool queued = false;
    bool resolved = false;  ///< Submit resolved the view at admission.
    Status status;
    ReadView view;
  };
  struct Job;

  QueryResponse Run(const Request& r, const util::Deadline& deadline,
                    Admission* a);

  Telemetry telemetry_;
  std::unique_ptr<util::ShardedLruCache<std::string, std::string>> cache_;
  std::atomic<int64_t> inflight_{0};
  std::unique_ptr<QosExecutor> executor_;
  std::unique_ptr<TelemetryExporter> exporter_;
};

/// The well-formed error response for a *parsed* request
/// ({"type":"error",...,"request":"<canonical>"}), shared by every
/// backend so error bytes match at every shard count.
QueryResponse ErrorResponse(const Request& r, const Status& status);

/// Admission for static backends: OK, or FailedPrecondition for a "@v"
/// pin (a static graph has no version history to pin into).
Status RejectVersionPin(const Request& r);

/// The admission-control shed response:
/// {"type":"error","code":"overloaded",...}. Never cached.
QueryResponse MakeOverloadedResponse(const Request& r);

/// The well-formed error response for an unparseable protocol line.
QueryResponse LineParseErrorResponse(std::string_view line,
                                     const Status& status);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_FRONT_DOOR_H_
