#include "serve/router.h"

#include <algorithm>
#include <future>
#include <utility>

#include "serve/bounded_distance.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;
using graph::NodeId;

namespace {

// The distributed-BFS adjacency: PrepareLevel fetches the whole frontier
// level's rows from each node's home shard (one batched sub-task per
// shard, in parallel on the shard pools — the stand-in for the RPC a
// networked deployment would make), then ForEachOut/ForEachIn replay
// them in frontier order. The home shard holds both exact rows of its
// nodes (partition rules R1+R2), so the replayed rows equal the base
// graph's and the shared search template walks the exact same expansion
// order as the unsharded engine's local BFS.
class ScatterAdj {
 public:
  ScatterAdj(const std::vector<std::unique_ptr<RouterShard>>* shards,
             const std::vector<uint8_t>* home)
      : shards_(shards), home_(home) {}

  void PrepareLevel(const std::vector<NodeId>& frontier, bool forward) const {
    ELITENET_SPAN("serve.router.gather_level");
    rows_.assign(frontier.size(), {});
    cursor_ = 0;
    std::vector<std::vector<uint32_t>> by_shard(shards_->size());
    for (uint32_t i = 0; i < frontier.size(); ++i) {
      by_shard[(*home_)[frontier[i]]].push_back(i);
    }
    std::vector<std::future<void>> waits;
    for (size_t s = 0; s < by_shard.size(); ++s) {
      if (by_shard[s].empty()) continue;
      auto done = std::make_shared<std::promise<void>>();
      waits.push_back(done->get_future());
      auto positions =
          std::make_shared<std::vector<uint32_t>>(std::move(by_shard[s]));
      RouterShard* shard = (*shards_)[s].get();
      auto* rows = &rows_;
      const std::vector<NodeId>* nodes = &frontier;
      shard->pool.SubmitExempt([shard, positions, rows, nodes, forward, done] {
        const DiGraph& g = shard->graph();
        for (uint32_t i : *positions) {
          const NodeId u = (*nodes)[i];
          const auto row = forward ? g.OutNeighbors(u) : g.InNeighbors(u);
          (*rows)[i].assign(row.begin(), row.end());
        }
        done->set_value();
      });
    }
    for (auto& w : waits) w.wait();
  }

  template <typename Fn>
  void ForEachOut(NodeId, Fn&& fn) const {
    for (NodeId v : rows_[cursor_++]) fn(v);
  }
  template <typename Fn>
  void ForEachIn(NodeId, Fn&& fn) const {
    for (NodeId v : rows_[cursor_++]) fn(v);
  }

 private:
  const std::vector<std::unique_ptr<RouterShard>>* shards_;
  const std::vector<uint8_t>* home_;
  // Per-level row buffers, indexed by frontier position; the search
  // consumes each exactly once, in order (hence the cursor).
  mutable std::vector<std::vector<NodeId>> rows_;
  mutable size_t cursor_ = 0;
};

}  // namespace

ShardedRouter::ShardedRouter(const RouterOptions& options)
    : FrontDoor(options.engine) {}

ShardedRouter::~ShardedRouter() {
  // Queued jobs still reach the shards, whose pools are joined when
  // shards_ is destroyed after this.
  Close();
}

Result<std::unique_ptr<ShardedRouter>> ShardedRouter::Create(
    DiGraph g, const RouterOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  std::unique_ptr<ShardedRouter> router(new ShardedRouter(options));
  router->num_nodes_ = g.num_nodes();
  router->num_edges_ = g.num_edges();

  util::SpanTimer timer("serve.router.warmup");
  {
    // One warm build over the *global* graph; every shard answers from
    // this bundle, which is what makes PageRank/component/hub-label bytes
    // identical across shard counts.
    ELITENET_SPAN("serve.router.warm_global");
    auto warm =
        LoadOrBuildWarmIndexes(g, options.engine, &router->warm_from_cache_);
    if (!warm.ok()) return warm.status();
    router->warm_ = std::move(*warm);
  }
  {
    ELITENET_SPAN("serve.router.partition");
    PartitionOptions popt;
    popt.num_shards = options.num_shards;
    popt.hub_count = options.hub_count;
    auto part = LoadOrBuildPartition(g, popt, options.partition_path,
                                     &router->partition_from_cache_);
    if (!part.ok()) return part.status();
    router->partition_ = std::move(*part);
  }
  for (int s = 0; s < options.num_shards; ++s) {
    ELITENET_SPAN("serve.router.build_shard");
    auto sg = BuildShardGraph(g, router->partition_, s);
    if (!sg.ok()) return sg.status();
    router->shards_.push_back(std::make_unique<RouterShard>(
        std::move(*sg), std::max(1, options.shard_threads)));
  }
  router->warmup_seconds_ = timer.Seconds();
  // The base CSR dies with `g` here: steady-state memory is the shard
  // subgraphs plus one warm bundle. Everything the router still needs
  // from the base graph is its two scalars.

  router->Open();
  return router;
}

Status ShardedRouter::ResolveSnapshot(const Request& r, ReadView* view) const {
  // Same rejection (and bytes) as a static engine: the shards are static,
  // there is no version history to pin into.
  view->warm = &warm_;
  return RejectVersionPin(r);
}

QueryResponse ShardedRouter::Compute(const Request& r,
                                     const util::Deadline& deadline,
                                     const ReadView& view) {
  switch (r.type) {
    case RequestType::kEgoSummary:
    case RequestType::kNeighbors:
      // Single-shard: the home shard's rows (and, for ego's 2-hop
      // reach, its halo rows) are exact. Out-of-range nodes go to shard
      // 0, whose num_nodes equals the base graph's — identical NotFound
      // bytes.
      return shards_[HomeShard(r.node)]->backend.Compute(r, deadline, view);
    case RequestType::kTopKRank:
      return DoTopK(r);
    case RequestType::kDistance:
      return DoDistance(r, deadline, view);
    case RequestType::kFingerprint:
      // Answered from the shared warm bundle; any shard renders the
      // same bytes.
      return shards_[0]->backend.Compute(r, deadline, view);
  }
  return ErrorResponse(r, Status::Internal("unhandled request type"));
}

QueryResponse ShardedRouter::DoTopK(const Request& r) {
  ELITENET_SPAN("serve.router.scatter_topk");
  const uint32_t returned =
      std::min<uint32_t>(r.k, static_cast<uint32_t>(warm_.rank_order.size()));
  // Rank order and scores come from the shared warm bundle; only the
  // degree columns need the graph, and each row's home shard holds both
  // of its rows exactly. Gather per shard in parallel, merge by rank
  // position — a fixed slot per row, so the merged bytes are independent
  // of shard count and completion order.
  std::vector<std::pair<uint32_t, uint32_t>> degrees(returned);
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  for (uint32_t i = 0; i < returned; ++i) {
    by_shard[HomeShard(warm_.rank_order[i])].push_back(i);
  }
  std::vector<std::future<void>> waits;
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    auto done = std::make_shared<std::promise<void>>();
    waits.push_back(done->get_future());
    auto positions =
        std::make_shared<std::vector<uint32_t>>(std::move(by_shard[s]));
    RouterShard* shard = shards_[s].get();
    const WarmIndexes* warm = &warm_;
    auto* out = &degrees;
    shard->pool.SubmitExempt([shard, positions, warm, out, done] {
      const DiGraph& g = shard->graph();
      for (uint32_t i : *positions) {
        const NodeId u = warm->rank_order[i];
        (*out)[i] = {g.InDegree(u), g.OutDegree(u)};
      }
      done->set_value();
    });
  }
  for (auto& w : waits) w.wait();
  QueryResponse resp;
  resp.json = RenderTopKJson(warm_, r.k, degrees);
  return resp;
}

QueryResponse ShardedRouter::DoDistance(const Request& r,
                                        const util::Deadline& deadline,
                                        const ReadView& view) {
  if (r.node >= num_nodes_ || r.target >= num_nodes_) {
    // Identical NotFound bytes (shard graphs share the base num_nodes).
    return shards_[0]->backend.Compute(r, deadline, view);
  }
  if (distance_oracle_active()) {
    // The hub-label oracle reads only the shared warm bundle — any shard
    // answers identically; the home shard keeps the routing rule simple.
    return shards_[HomeShard(r.node)]->backend.Compute(r, deadline, view);
  }
  // BFS fallback: the shared bounded search over the scatter-gather
  // adjacency — same expansion order as an unsharded engine's local BFS,
  // rendered by the same function, so completed *and* degraded bytes
  // match at every shard count.
  ELITENET_COUNT("serve.dist.bfs_fallback", 1);
  ELITENET_SPAN("serve.router.scatter_bfs");
  // Shard graphs span the base node range, so any shard's scratch pool
  // sizes the search arenas.
  GraphBackend& pool = shards_[0]->backend;
  auto scratch = pool.BorrowScratch();
  ScatterAdj adj(&shards_, &partition_.home);
  const BoundedDistanceResult d = BoundedBidirectionalDistance(
      adj, r.node, r.target, deadline, &scratch->fwd, &scratch->bwd);
  pool.ReturnScratch(std::move(scratch));
  return MakeDistanceResponse(r, d);
}

void ShardedRouter::AddStats(EngineStatsContext* ctx) const {
  ctx->nodes = num_nodes_;
  ctx->edges = num_edges_;
  ctx->oracle_active = distance_oracle_active();
  ctx->shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    EngineStatsContext::ShardEntry entry;
    entry.id = static_cast<int>(s);
    entry.nodes = partition_.home_nodes[s];
    entry.edges = shards_[s]->graph().num_edges();
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      const QosClassStats cs = shards_[s]->pool.class_stats(QosClassAt(i));
      entry.queue_depth += cs.queue_depth;
      entry.executed += cs.executed;
    }
    ctx->shards.push_back(entry);
  }
  ctx->hub_replicas = partition_.hubs.size();
}

}  // namespace serve
}  // namespace elitenet
