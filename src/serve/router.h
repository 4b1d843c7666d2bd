// Scale-out serving: N shard backends behind one scatter-gather router.
//
// The router is the second backend behind the FrontDoor
// (serve/front_door.h): the front door owns the request lifecycle — the
// QoS executor, the result cache, the telemetry path, the admin verbs
// and the exporter — exactly as it does for an unsharded QueryEngine, so
// every request is admitted, counted, and cached exactly once. The
// router implements the backend seam: ResolveSnapshot (the global warm
// bundle; "@v" pins are rejected, the shards are static) and Compute, the
// routing table below. Each shard is a plain graph backend (the engine's
// GraphBackend over the subgraph a degree-aware partition,
// serve/partition.h, carves out of one base CSR) plus the worker pool
// that runs its scatter sub-tasks.
//
// The contract that makes sharding an implementation detail: **response
// bytes are identical to the unsharded engine's at every shard count**,
// including error, degraded, and cached paths. Three mechanisms carry
// it:
//
//   * Warm indexes are computed once, over the *global* graph, and every
//     shard answers from that one bundle — so PageRank scores, component
//     labels, hub labels, and the fingerprint are the same bytes
//     everywhere.
//   * Single-node queries (ego, neighbors) route to the node's home
//     shard, where the partition guarantees both adjacency rows — and,
//     via the halo rule, every neighbor's out-row — are exact.
//   * Multi-shard queries reuse the engine's own renderers
//     (RenderTopKJson, MakeDistanceResponse) over data gathered from
//     the shards in deterministic order: topk degree columns are
//     fetched from each row's home shard and merged by rank position;
//     dist falls back to the *shared* bounded bidirectional BFS
//     (serve/bounded_distance.h), whose PrepareLevel hook batches each
//     frontier level into per-home-shard row fetches and replays them
//     in frontier order — the same expansion order as the local BFS,
//     hence the same bytes, completed or degraded.
//
// Fan-out runs on the shard pools, never on the router's workers, so a
// saturated router queue cannot deadlock its own sub-requests.

#ifndef ELITENET_SERVE_ROUTER_H_
#define ELITENET_SERVE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "serve/engine.h"
#include "serve/front_door.h"
#include "serve/partition.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "util/deadline.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct RouterOptions {
  /// Shard count, 1..255. One shard is legal (and byte-identical to an
  /// unsharded engine — the degenerate case the identity tests pin).
  int num_shards = 2;
  /// Worker threads per shard pool (scatter-gather sub-requests).
  int shard_threads = 1;
  /// Top-degree rows replicated on every shard (PartitionOptions).
  uint32_t hub_count = 64;
  /// When non-empty, the partition is restored from / persisted to this
  /// ".pidx" sidecar (PartitionPathFor gives the convention).
  std::string partition_path;
  /// Front-door options: `threads` sizes the router's QoS executor,
  /// `qos` sets its admission caps, `cache_capacity` its result cache,
  /// `telemetry`/`metrics_path` its observability, and
  /// `warm_index_path` the *global* warm sidecar; the index-shaping
  /// fields (pagerank, fingerprint, distance_oracle) shape the global
  /// warm build.
  EngineOptions engine;
};

/// One shard: a plain graph backend over the shard subgraph, plus the
/// worker pool that runs its scatter sub-tasks (cap-exempt).
struct RouterShard {
  RouterShard(graph::DiGraph g, int threads)
      : backend(std::move(g)), pool(threads, QosOptions{}) {}

  const graph::DiGraph& graph() const { return backend.graph(); }

  GraphBackend backend;
  QosExecutor pool;
};

/// The scatter-gather router. Thread-safe; one instance per served
/// graph, like QueryEngine — the line-protocol front ends drive either
/// through the FrontDoor.
class ShardedRouter : public FrontDoor {
 public:
  /// Builds the partition, the global warm bundle, and one backend per
  /// shard. The base CSR is released once the shard subgraphs are built:
  /// the router retains only its scalars, so steady-state memory is the
  /// shards plus one warm bundle.
  static Result<std::unique_ptr<ShardedRouter>> Create(
      graph::DiGraph g, const RouterOptions& options = {});

  ~ShardedRouter() override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }

  /// The node→shard map and hub set in force.
  const Partition& partition() const { return partition_; }

  /// Shard `i` (tests: hub-replication and row-exactness invariants are
  /// asserted against these).
  const RouterShard& shard(int i) const { return *shards_[i]; }

  /// The global warm bundle every shard serves from.
  const WarmIndexes& warm_indexes() const { return warm_; }

  bool distance_oracle_active() const { return !warm_.hub_labels.empty(); }

  bool partition_from_cache() const { return partition_from_cache_; }

 private:
  explicit ShardedRouter(const RouterOptions& options);

  int HomeShard(graph::NodeId u) const {
    return u < num_nodes_ ? partition_.home[u] : 0;
  }

  Status ResolveSnapshot(const Request& r, ReadView* view) const override;
  /// The routing table (see file comment) — the miss path.
  QueryResponse Compute(const Request& r, const util::Deadline& deadline,
                        const ReadView& view) override;
  /// Global graph identity plus one ShardEntry per shard.
  void AddStats(EngineStatsContext* ctx) const override;

  QueryResponse DoTopK(const Request& r);
  QueryResponse DoDistance(const Request& r, const util::Deadline& deadline,
                           const ReadView& view);

  uint64_t num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  WarmIndexes warm_;
  Partition partition_;
  bool partition_from_cache_ = false;
  std::vector<std::unique_ptr<RouterShard>> shards_;
};

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_ROUTER_H_
