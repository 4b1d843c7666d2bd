// QueryEngine — a long-lived in-memory serving layer over one loaded
// graph, in the SNAP tradition of amortizing load/index cost across many
// analyses: pay for the expensive whole-graph computations once at
// startup ("warm indexes"), then answer per-user queries at interactive
// latency from those indexes.
//
// Warm indexes built by Create():
//   * degree tables + overall DegreeStats,
//   * PageRank scores, the full descending rank order, and each node's
//     1-based rank position,
//   * WCC and SCC labelings (component id + size per node),
//   * per-node mutual-edge counts (reciprocity flags),
//   * the graph fingerprint and its similarity to the paper's signature.
//
// QueryEngine is one of the two backends behind the FrontDoor
// (serve/front_door.h), which owns the request lifecycle: the QoS
// executor behind Submit, the result cache, the telemetry path, the
// admin verbs and the exporter. The engine supplies the backend seam:
// ResolveSnapshot (the warm bundle, plus the MVCC snapshot on live
// engines) and Compute, which runs the GraphBackend handlers below.
//
// Per-request deadlines (util/deadline.h): distance queries answer from
// the warm hub-label oracle (graph/hub_labels.h) by label intersection —
// exact and microseconds, never degraded. When the oracle is disabled or
// its construction blew the label budget, they fall back to
// bidirectional BFS, polling the deadline per level and degrading to the
// best lower bound found with degraded=true; warm-index queries cost
// microseconds and always complete.
//
// Determinism: every non-degraded response is a pure function of the
// graph and the request — no timings, thread ids, or cache state leak
// into the bytes — so replaying a request stream produces byte-identical
// responses at any worker-thread count (asserted by bench_serving and
// serve_engine_test).

#ifndef ELITENET_SERVE_ENGINE_H_
#define ELITENET_SERVE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "graph/frontier.h"
#include "serve/bounded_distance.h"
#include "serve/delta_overlay.h"
#include "serve/front_door.h"
#include "serve/mutation_log.h"
#include "serve/request.h"
#include "serve/warm_index_cache.h"
#include "util/deadline.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

/// Configuration for a live (mutable) engine — see CreateLive.
struct LiveEngineOptions {
  /// Write-ahead log for applied mutations; replayed at CreateLive when
  /// the file exists. Empty disables journaling.
  std::string log_path;
  /// fsync the WAL after every append.
  bool sync_log = false;
  /// Where compaction writes the fresh ENG2 snapshot (a ".widx" warm
  /// sidecar rides next to it). Required for CompactNow / auto
  /// compaction.
  std::string compact_path;
  /// Sorter budget / temp dir for the compaction writer.
  graph::StreamWriteOptions compact_stream;
  /// Auto-compaction trigger: the background compactor folds the overlay
  /// once this many versions sit above the epoch base. 0 = manual
  /// CompactNow() only (no compactor thread).
  uint64_t compact_after = 0;
};

/// A plain graph backend: one graph, a scratch pool, and the request
/// handlers that answer from it. QueryEngine computes through one; each
/// router shard is one (serve/router.h). Thread-safe.
class GraphBackend {
 public:
  explicit GraphBackend(graph::DiGraph g) : graph_(std::move(g)) {}

  const graph::DiGraph& graph() const { return graph_; }

  /// Answers `r` from `view.warm` and this graph — or, when `view.snap`
  /// is valid, from the live snapshot instead of the graph. Never
  /// consults a cache.
  QueryResponse Compute(const Request& r, const util::Deadline& deadline,
                        const ReadView& view);

  /// Two BFS arenas sized to the graph, pooled across requests.
  struct Scratch {
    explicit Scratch(graph::NodeId n) : fwd(n), bwd(n) {}
    graph::ScratchArena fwd;
    graph::ScratchArena bwd;
  };
  /// Borrows a scratch from the pool, creating one on first use; returned
  /// by ReturnScratch.
  std::unique_ptr<Scratch> BorrowScratch();
  void ReturnScratch(std::unique_ptr<Scratch> s);

 private:
  QueryResponse DoEgoSummary(const Request& r, const ReadView& view);
  QueryResponse DoTopKRank(const Request& r, const ReadView& view);
  QueryResponse DoDistance(const Request& r, const util::Deadline& deadline,
                           const ReadView& view);
  QueryResponse DoNeighbors(const Request& r, const ReadView& view);
  QueryResponse DoFingerprint(const ReadView& view);

  const graph::DiGraph graph_;
  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<Scratch>> scratch_pool_;
};

class QueryEngine : public FrontDoor {
 public:
  /// Builds every warm index (the expensive part — O(iterations * m) for
  /// PageRank, O(n + m) per component labeling) and starts the executor.
  /// Fails on an empty graph or a PageRank that cannot run; a failed
  /// fingerprint (e.g. degenerate degree tail) is tolerated and surfaces
  /// as an error response to fingerprint queries only.
  static Result<std::unique_ptr<QueryEngine>> Create(
      graph::DiGraph g, const EngineOptions& options = {});

  /// Like Create, but the graph accepts live follow/unfollow mutations
  /// through Apply(): the loaded graph becomes the immutable base of a
  /// LiveGraph delta overlay, every request captures an MVCC snapshot at
  /// admission, and responses carry `"version"` (the snapshot's graph
  /// version) and `"as_of"` (the base version the expensive warm indexes
  /// were computed at — the staleness bound for PageRank/component/rank
  /// fields). Cheap facts (degrees, neighbor lists, mutual counts, 2-hop
  /// reach) are exact at the snapshot version; dist falls back from the
  /// hub-label oracle to overlay-aware bidirectional BFS when either
  /// endpoint was touched since the base was built.
  static Result<std::unique_ptr<QueryEngine>> CreateLive(
      graph::DiGraph g, const LiveEngineOptions& live,
      const EngineOptions& options = {});

  /// Stops the background compactor (live engines), then the front door.
  ~QueryEngine() override;

  const graph::DiGraph& graph() const { return backend_.graph(); }

  /// True for engines built by CreateLive.
  bool is_live() const { return live_ != nullptr; }

  /// Applies one follow/unfollow on a live engine (total order; safe from
  /// any thread — the overlay serializes writers). FailedPrecondition on
  /// static engines. May wake the background compactor.
  Result<ApplyOutcome> Apply(const Mutation& m);

  /// Folds the overlay into a fresh ENG2 at live.compact_path (plus a
  /// ".widx" warm sidecar) and swaps it in as the new base epoch.
  /// FailedPrecondition on static engines or when no compact_path was
  /// configured.
  Result<CompactionStats> CompactNow();

  /// Current overlay counters (zero-valued on static engines).
  OverlayStats overlay_stats() const;

  /// Last applied graph version (0 on static engines).
  uint64_t applied_version() const;

  /// Captures the current MVCC snapshot (tests/benches; invalid() on
  /// static engines).
  LiveSnapshot live_snapshot() const;

  /// The warm-index bundle (immutable after Create). Static engines only:
  /// a live engine hangs its bundle off the current epoch (so compaction
  /// can swap base and indexes atomically) and this returns an empty one.
  const WarmIndexes& warm_indexes() const { return warm_; }

  /// True when dist queries are answered by the hub-label oracle; false
  /// when it is disabled by options or construction blew its budget (in
  /// which case dist uses the bidirectional-BFS fallback). Live engines
  /// consult the current epoch's bundle.
  bool distance_oracle_active() const;

 private:
  QueryEngine(graph::DiGraph g, const EngineOptions& options);

  /// Load-or-build: consult the sidecar when configured, else compute
  /// every index and (best-effort) persist it for the next cold start.
  Status Warmup();
  void CompactorLoop();

  /// Static engines read warm_ and reject "@v" pins; live engines capture
  /// the current (or pinned) MVCC snapshot and read its epoch's bundle.
  Status ResolveSnapshot(const Request& r, ReadView* view) const override;
  QueryResponse Compute(const Request& r, const util::Deadline& deadline,
                        const ReadView& view) override;
  void AddStats(EngineStatsContext* ctx) const override;

  GraphBackend backend_;

  // Warm indexes (immutable after Warmup; read concurrently). Restored
  // from the sidecar or computed — either way the same bytes, which is
  // what keeps responses identical across load paths.
  WarmIndexes warm_;

  // Live-mutation plane (CreateLive only; null on static engines).
  std::unique_ptr<LiveGraph> live_;
  LiveEngineOptions live_options_;
  std::mutex compactor_mutex_;
  std::condition_variable compactor_cv_;
  bool compactor_stop_ = false;  ///< Guarded by compactor_mutex_.
  std::thread compactor_;
};

// ---------------------------------------------------------------------------
// Shared building blocks: the sharded router (serve/router.cc) assembles
// responses from the same functions the engine uses, which is how its
// bytes stay identical to the unsharded engine's at every shard count.

/// The full warm-index build as a pure function of (graph, options): the
/// engine's Create() path, the live compactor, and the router's one-time
/// global warmup all run this same code.
Status ComputeWarmIndexes(const graph::DiGraph& g, const EngineOptions& options,
                          WarmIndexes* warm);

/// Sidecar-aware warmup: restore from options.warm_index_path when it is
/// set and matches (checksum + config), else compute and best-effort
/// persist. `*from_cache` reports which path ran.
Result<WarmIndexes> LoadOrBuildWarmIndexes(const graph::DiGraph& g,
                                           const EngineOptions& options,
                                           bool* from_cache);

/// Renders the "topk" response. `in_out_degrees[i]` carries
/// {in_degree, out_degree} of warm.rank_order[i] and must cover at least
/// min(k, rank_order.size()) rows. The engine fills it from its graph or
/// live snapshot; the router gathers it from each node's home shard. A
/// non-null `snap` adds the live "version"/"as_of" fields.
std::string RenderTopKJson(const WarmIndexes& warm, uint32_t k,
                           std::span<const std::pair<uint32_t, uint32_t>>
                               in_out_degrees,
                           const LiveSnapshot* snap = nullptr);

/// Renders the "dist" response from a bounded-search result — completed
/// (reachable/distance) or degraded (lower_bound/expanded). The engine's
/// oracle and BFS paths and the router's scatter-gather BFS all feed this
/// one renderer, so their bytes cannot drift. A non-null `snap` adds the
/// live "version"/"as_of" fields.
QueryResponse MakeDistanceResponse(const Request& r,
                                   const BoundedDistanceResult& d,
                                   const LiveSnapshot* snap = nullptr);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_ENGINE_H_
