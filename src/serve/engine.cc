#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/reciprocity.h"
#include "graph/frontier.h"
#include "serve/bounded_distance.h"
#include "graph/io.h"
#include "graph/traversal.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;
using graph::NodeId;

namespace {

void AppendU64(std::string* out, uint64_t v) { *out += std::to_string(v); }

void AppendI64(std::string* out, int64_t v) { *out += std::to_string(v); }

void AppendBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

// Adjacency adapters so the shared bounded search
// (serve/bounded_distance.h) runs over either a static DiGraph or a live
// MVCC snapshot. Both iterate neighbors in ascending id order, so the
// expansion order — and therefore the bytes of a completed answer — is
// identical across the two backings. PrepareLevel is the router's
// batched-gather hook; in-memory backings need none.
struct GraphAdj {
  const DiGraph* g;
  void PrepareLevel(const std::vector<NodeId>&, bool) const {}
  template <typename Fn>
  void ForEachOut(NodeId u, Fn&& fn) const {
    for (NodeId v : g->OutNeighbors(u)) fn(v);
  }
  template <typename Fn>
  void ForEachIn(NodeId u, Fn&& fn) const {
    for (NodeId v : g->InNeighbors(u)) fn(v);
  }
};

struct SnapAdj {
  const LiveSnapshot* s;
  void PrepareLevel(const std::vector<NodeId>&, bool) const {}
  template <typename Fn>
  void ForEachOut(NodeId u, Fn&& fn) const {
    s->ForEachOut(u, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void ForEachIn(NodeId u, Fn&& fn) const {
    s->ForEachIn(u, std::forward<Fn>(fn));
  }
};

}  // namespace

// The full warm-index build as a pure function of (graph, options) — the
// Create() path runs it over the loaded base, a live engine's compactor
// runs the very same code over each freshly compacted base, and the
// sharded router runs it once over the global graph, so every consumer
// serves exactly the same warm bytes.
Status ComputeWarmIndexes(const DiGraph& g, const EngineOptions& options,
                          WarmIndexes* warm) {
  {
    ELITENET_SPAN("serve.warm.degree");
    warm->degree_stats = analysis::ComputeDegreeStats(g);
    warm->reciprocity = analysis::ComputeReciprocity(g);
    warm->mutual_degree.assign(g.num_nodes(), 0);
    util::ParallelFor(0, g.num_nodes(), 0, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const NodeId u = static_cast<NodeId>(i);
        uint32_t mutual = 0;
        for (NodeId v : g.OutNeighbors(u)) {
          if (g.HasEdge(v, u)) ++mutual;
        }
        warm->mutual_degree[i] = mutual;
      }
    });
  }
  {
    ELITENET_SPAN("serve.warm.components");
    warm->wcc = analysis::WeaklyConnectedComponents(g);
    warm->scc = analysis::StronglyConnectedComponents(g);
  }
  {
    ELITENET_SPAN("serve.warm.pagerank");
    auto pr = analysis::PageRank(g, options.pagerank);
    if (!pr.ok()) return pr.status();
    warm->pagerank = std::move(pr->scores);
    warm->rank_order = analysis::TopKByScore(warm->pagerank, g.num_nodes());
    warm->rank_of.assign(g.num_nodes(), 0);
    for (size_t i = 0; i < warm->rank_order.size(); ++i) {
      warm->rank_of[warm->rank_order[i]] = static_cast<uint32_t>(i + 1);
    }
  }
  if (options.distance_oracle) {
    // May return an unbuilt (empty) labeling when the pruned-label budget
    // is exceeded; dist then serves via the BFS fallback. Either outcome
    // is persisted as-is, so a restored engine behaves identically.
    ELITENET_SPAN("serve.warm.dist_oracle");
    warm->hub_labels = graph::BuildHubLabels(g);
  }
  {
    ELITENET_SPAN("serve.warm.fingerprint");
    auto fp = core::ComputeFingerprint(g, options.fingerprint);
    if (fp.ok()) {
      warm->fingerprint = *fp;
      warm->fingerprint_similarity =
          core::FingerprintSimilarity(*fp, core::PaperFingerprint());
      warm->fingerprint_ok = true;
    } else {
      warm->fingerprint_error = fp.status().ToString();
    }
  }
  return Status::OK();
}

Result<WarmIndexes> LoadOrBuildWarmIndexes(const DiGraph& g,
                                           const EngineOptions& options,
                                           bool* from_cache) {
  *from_cache = false;
  WarmIndexKey key;
  if (!options.warm_index_path.empty()) {
    key.graph_checksum = graph::GraphChecksum(g);
    key.config_hash = WarmConfigHash(options.pagerank, options.fingerprint,
                                     options.distance_oracle);
    ELITENET_SPAN("serve.warm.widx_load");
    auto restored = LoadWarmIndexes(options.warm_index_path, key,
                                    g.num_nodes());
    if (restored.ok()) {
      ELITENET_COUNT("serve.widx.hit", 1);
      *from_cache = true;
      return std::move(*restored);
    }
    ELITENET_COUNT("serve.widx.miss", 1);
  }
  WarmIndexes warm;
  EN_RETURN_IF_ERROR(ComputeWarmIndexes(g, options, &warm));
  if (!options.warm_index_path.empty()) {
    // Best-effort: a read-only filesystem must not fail engine startup.
    ELITENET_SPAN("serve.warm.widx_write");
    if (SaveWarmIndexes(options.warm_index_path, key, warm).ok()) {
      ELITENET_COUNT("serve.widx.write", 1);
    }
  }
  return warm;
}

QueryEngine::QueryEngine(DiGraph g, const EngineOptions& options)
    : FrontDoor(options), backend_(std::move(g)) {}

QueryEngine::~QueryEngine() {
  // Stop the compactor first: it calls back into CompactNow, which needs
  // live_ and the telemetry counters intact.
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compactor_mutex_);
      compactor_stop_ = true;
    }
    compactor_cv_.notify_all();
    compactor_.join();
  }
  Close();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    DiGraph g, const EngineOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(std::move(g), options));
  EN_RETURN_IF_ERROR(engine->Warmup());
  engine->Open();
  return engine;
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::CreateLive(
    DiGraph g, const LiveEngineOptions& live, const EngineOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  std::unique_ptr<QueryEngine> engine(new QueryEngine(std::move(g), options));
  EN_RETURN_IF_ERROR(engine->Warmup());
  // The warm bundle moves into the epoch payload: requests reach it
  // through their admission snapshot, so a compaction can publish a fresh
  // bundle together with its base while in-flight requests keep reading
  // the one their epoch owns.
  auto payload = std::make_shared<const WarmIndexes>(std::move(engine->warm_));
  engine->warm_ = WarmIndexes();
  LiveGraphOptions lopt;
  lopt.log_path = live.log_path;
  lopt.sync_log = live.sync_log;
  lopt.compact_stream = live.compact_stream;
  // DiGraph copies share storage, so the overlay's base is the same CSR
  // the engine's graph() exposes — no second copy of the graph.
  auto lg = LiveGraph::Create(engine->graph(), lopt,
                              std::shared_ptr<const void>(payload));
  if (!lg.ok()) return lg.status();
  engine->live_ = std::move(*lg);
  engine->live_options_ = live;
  engine->Open();
  if (live.compact_after > 0 && !live.compact_path.empty()) {
    QueryEngine* raw = engine.get();
    engine->compactor_ = std::thread([raw] { raw->CompactorLoop(); });
  }
  return engine;
}

Status QueryEngine::Warmup() {
  util::SpanTimer timer("serve.warmup");
  auto warm = LoadOrBuildWarmIndexes(graph(), options_, &warm_from_cache_);
  if (!warm.ok()) return warm.status();
  warm_ = std::move(*warm);
  warmup_seconds_ = timer.Seconds();
  return Status::OK();
}

Status QueryEngine::ResolveSnapshot(const Request& r, ReadView* view) const {
  if (live_ == nullptr) {
    view->warm = &warm_;
    return RejectVersionPin(r);
  }
  if (r.version == 0) {
    view->snap = live_->Snapshot();
  } else {
    auto pinned = live_->SnapshotAt(r.version);
    if (!pinned.ok()) return pinned.status();
    view->snap = std::move(*pinned);
  }
  view->warm = static_cast<const WarmIndexes*>(view->snap.warm_payload());
  return Status::OK();
}

QueryResponse QueryEngine::Compute(const Request& r,
                                   const util::Deadline& deadline,
                                   const ReadView& view) {
  return backend_.Compute(r, deadline, view);
}

QueryResponse GraphBackend::Compute(const Request& r,
                                    const util::Deadline& deadline,
                                    const ReadView& view) {
  switch (r.type) {
    case RequestType::kEgoSummary:
      return DoEgoSummary(r, view);
    case RequestType::kTopKRank:
      return DoTopKRank(r, view);
    case RequestType::kDistance:
      return DoDistance(r, deadline, view);
    case RequestType::kNeighbors:
      return DoNeighbors(r, view);
    case RequestType::kFingerprint:
      return DoFingerprint(view);
  }
  return ErrorResponse(r, Status::Internal("unhandled request type"));
}

namespace {

// Live responses carry the snapshot version they answered at and the
// base version the epoch's warm indexes were computed at — the staleness
// bound for warm-index fields. Static responses stay byte-for-byte what
// they were before live mode existed.
void AppendVersionFields(std::string* j, const LiveSnapshot* snap) {
  if (snap == nullptr) return;
  *j += ",\"version\":";
  AppendU64(j, snap->version());
  *j += ",\"as_of\":";
  AppendU64(j, snap->base_version());
}

// The live snapshot a view reads, or null on static backends.
const LiveSnapshot* LiveOf(const ReadView& view) {
  return view.snap.valid() ? &view.snap : nullptr;
}

}  // namespace

QueryResponse GraphBackend::DoEgoSummary(const Request& r,
                                         const ReadView& view) {
  const NodeId u = r.node;
  if (u >= graph_.num_nodes()) {
    return ErrorResponse(
        r, Status::NotFound("node " + std::to_string(u) + " not in graph"));
  }
  const WarmIndexes& warm = *view.warm;
  const LiveSnapshot* snap = LiveOf(view);
  // Two-hop out-reach (distinct nodes within <= 2 follows, excluding u):
  // the per-user audience estimate verification-style lookups want. Marked
  // in a pooled arena so hub queries do not allocate O(n) scratch. Live
  // engines traverse the snapshot — exact at the request's version even
  // when only a neighbor-of-a-neighbor was touched.
  std::unique_ptr<Scratch> scratch = BorrowScratch();
  graph::ScratchArena& a = scratch->fwd;
  a.BeginEpoch();
  a.Visit(u, 0, graph::kNoParent);
  uint64_t reach = 0;
  uint32_t out_deg = 0;
  uint32_t in_deg = 0;
  uint64_t mutual = 0;
  if (snap != nullptr) {
    std::vector<NodeId> first;
    snap->CollectOut(u, &first);
    for (NodeId v : first) {
      if (!a.Visited(v)) {
        a.Visit(v, 1, u);
        ++reach;
      }
    }
    for (NodeId v : first) {
      snap->ForEachOut(v, [&](NodeId w) {
        if (!a.Visited(w)) {
          a.Visit(w, 2, v);
          ++reach;
        }
      });
    }
    out_deg = static_cast<uint32_t>(first.size());
    in_deg = snap->InDegree(u);
    if (snap->Touched(u)) {
      // Either direction at u changed: the warm count may be stale, so
      // recount at the snapshot version (deg(u) containment probes).
      for (NodeId v : first) {
        if (snap->HasEdge(v, u)) ++mutual;
      }
    } else {
      // Untouched in both directions at this version: neither u's
      // follows nor its followers changed, so the warm count is exact.
      mutual = warm.mutual_degree[u];
    }
  } else {
    for (NodeId v : graph_.OutNeighbors(u)) {
      if (!a.Visited(v)) {
        a.Visit(v, 1, u);
        ++reach;
      }
    }
    for (NodeId v : graph_.OutNeighbors(u)) {
      for (NodeId w : graph_.OutNeighbors(v)) {
        if (!a.Visited(w)) {
          a.Visit(w, 2, v);
          ++reach;
        }
      }
    }
    out_deg = graph_.OutDegree(u);
    in_deg = graph_.InDegree(u);
    mutual = warm.mutual_degree[u];
  }
  ReturnScratch(std::move(scratch));

  QueryResponse resp;
  std::string& j = resp.json;
  j = "{\"type\":\"ego\",\"node\":";
  AppendU64(&j, u);
  AppendVersionFields(&j, snap);
  j += ",\"out_degree\":";
  AppendU64(&j, out_deg);
  j += ",\"in_degree\":";
  AppendU64(&j, in_deg);
  j += ",\"mutual\":";
  AppendU64(&j, mutual);
  j += ",\"reach_2hop\":";
  AppendU64(&j, reach);
  j += ",\"pagerank\":";
  j += JsonDouble(warm.pagerank[u]);
  j += ",\"rank\":";
  AppendU64(&j, warm.rank_of[u]);
  j += ",\"wcc_id\":";
  AppendU64(&j, warm.wcc.label[u]);
  j += ",\"wcc_size\":";
  AppendU64(&j, warm.wcc.sizes[warm.wcc.label[u]]);
  j += ",\"scc_id\":";
  AppendU64(&j, warm.scc.label[u]);
  j += ",\"scc_size\":";
  AppendU64(&j, warm.scc.sizes[warm.scc.label[u]]);
  j += ",\"is_sink\":";
  AppendBool(&j, out_deg == 0 && in_deg > 0);
  j += ",\"is_isolated\":";
  AppendBool(&j, out_deg == 0 && in_deg == 0);
  j += ",\"degraded\":false}";
  return resp;
}

std::string RenderTopKJson(const WarmIndexes& warm, uint32_t k,
                           std::span<const std::pair<uint32_t, uint32_t>>
                               in_out_degrees,
                           const LiveSnapshot* snap) {
  const uint32_t returned =
      std::min<uint32_t>(k, static_cast<uint32_t>(warm.rank_order.size()));
  std::string j = "{\"type\":\"topk\",\"k\":";
  AppendU64(&j, k);
  j += ",\"returned\":";
  AppendU64(&j, returned);
  AppendVersionFields(&j, snap);
  j += ",\"rows\":[";
  for (uint32_t i = 0; i < returned; ++i) {
    const NodeId u = warm.rank_order[i];
    if (i > 0) j += ',';
    j += "{\"rank\":";
    AppendU64(&j, i + 1);
    j += ",\"node\":";
    AppendU64(&j, u);
    j += ",\"score\":";
    j += JsonDouble(warm.pagerank[u]);
    j += ",\"in_degree\":";
    AppendU64(&j, in_out_degrees[i].first);
    j += ",\"out_degree\":";
    AppendU64(&j, in_out_degrees[i].second);
    j += '}';
  }
  j += "],\"degraded\":false}";
  return j;
}

QueryResponse MakeDistanceResponse(const Request& r,
                                   const BoundedDistanceResult& d,
                                   const LiveSnapshot* snap) {
  QueryResponse resp;
  resp.degraded = !d.completed;
  if (resp.degraded) ELITENET_COUNT("serve.degraded", 1);
  std::string& j = resp.json;
  j = "{\"type\":\"dist\",\"src\":";
  AppendU64(&j, r.node);
  j += ",\"dst\":";
  AppendU64(&j, r.target);
  AppendVersionFields(&j, snap);
  if (d.completed) {
    // Note: no traversal-cost field here — a completed answer must be a
    // pure function of (graph, request) so the oracle and BFS paths stay
    // byte-identical (and cacheable interchangeably).
    const bool reachable = d.distance != UINT32_MAX;
    j += ",\"reachable\":";
    AppendBool(&j, reachable);
    j += ",\"distance\":";
    AppendI64(&j, reachable ? static_cast<int64_t>(d.distance) : -1);
  } else {
    // Deadline hit (BFS fallback only): the true distance is unknown but
    // provably at least lower_bound (every completed level failed to
    // meet). Degraded responses are never cached, so the diagnostic
    // expansion count is safe to include.
    j += ",\"reachable\":null,\"distance\":-1,\"lower_bound\":";
    AppendU64(&j, d.lower_bound);
    j += ",\"expanded\":";
    AppendU64(&j, d.expanded);
  }
  j += ",\"degraded\":";
  AppendBool(&j, resp.degraded);
  j += '}';
  return resp;
}

QueryResponse GraphBackend::DoTopKRank(const Request& r,
                                       const ReadView& view) {
  const WarmIndexes& warm = *view.warm;
  const LiveSnapshot* snap = LiveOf(view);
  const uint32_t returned =
      std::min<uint32_t>(r.k, static_cast<uint32_t>(warm.rank_order.size()));
  // The shared renderer, with the degree columns read off this graph —
  // rows the router instead gathers per home shard, merging into the very
  // same bytes. On a live engine ordering and scores are as-of the epoch
  // base ("as_of"); the degree columns are exact at the snapshot version.
  std::vector<std::pair<uint32_t, uint32_t>> degs;
  degs.reserve(returned);
  for (uint32_t i = 0; i < returned; ++i) {
    const NodeId u = warm.rank_order[i];
    if (snap != nullptr) {
      degs.emplace_back(snap->InDegree(u), snap->OutDegree(u));
    } else {
      degs.emplace_back(graph_.InDegree(u), graph_.OutDegree(u));
    }
  }
  QueryResponse resp;
  resp.json = RenderTopKJson(warm, r.k, degs, snap);
  return resp;
}

QueryResponse GraphBackend::DoDistance(const Request& r,
                                       const util::Deadline& deadline,
                                       const ReadView& view) {
  if (r.node >= graph_.num_nodes() || r.target >= graph_.num_nodes()) {
    return ErrorResponse(r, Status::NotFound("distance endpoint not in graph"));
  }
  const WarmIndexes& warm = *view.warm;
  const LiveSnapshot* snap = LiveOf(view);
  // The hub-label oracle answers as-of the epoch base. On a live engine
  // it stays in charge only while both endpoints are untouched at the
  // snapshot version (bounded staleness: intermediate churn may shift the
  // true distance, endpoint churn may not go unseen); a touched endpoint
  // routes to the overlay-aware BFS, exact at the snapshot version. The
  // choice is a pure function of (epoch, version, request), so pinned
  // replays stay deterministic.
  const bool oracle_ok =
      !warm.hub_labels.empty() &&
      (snap == nullptr || (!snap->Touched(r.node) && !snap->Touched(r.target)));
  BoundedDistanceResult d;
  if (oracle_ok) {
    // Oracle fast path: exact distance by label intersection, no graph
    // traversal, no deadline interaction — it cannot degrade.
    ELITENET_COUNT("serve.dist.oracle_hit", 1);
    util::SpanTimer intersect_timer;
    d.distance = warm.hub_labels.Distance(r.node, r.target);
    ELITENET_SKETCH("serve.dist.intersect_us",
                    static_cast<uint64_t>(intersect_timer.Seconds() * 1e6));
  } else {
    ELITENET_COUNT("serve.dist.bfs_fallback", 1);
    std::unique_ptr<Scratch> scratch = BorrowScratch();
    if (snap != nullptr) {
      d = BoundedBidirectionalDistance(SnapAdj{snap}, r.node, r.target,
                                       deadline, &scratch->fwd, &scratch->bwd);
    } else {
      d = BoundedBidirectionalDistance(GraphAdj{&graph_}, r.node, r.target,
                                       deadline, &scratch->fwd, &scratch->bwd);
    }
    ReturnScratch(std::move(scratch));
  }
  return MakeDistanceResponse(r, d, snap);
}

QueryResponse GraphBackend::DoNeighbors(const Request& r,
                                        const ReadView& view) {
  const NodeId u = r.node;
  if (u >= graph_.num_nodes()) {
    return ErrorResponse(
        r, Status::NotFound("node " + std::to_string(u) + " not in graph"));
  }
  const LiveSnapshot* snap = LiveOf(view);
  // Live engines materialize the merged row at the snapshot version; its
  // order (ascending) matches the static CSR row, so a node untouched
  // since the base was built lists identically on both paths.
  std::vector<NodeId> merged;
  if (snap != nullptr) {
    if (r.direction == NeighborDirection::kOut) {
      snap->CollectOut(u, &merged);
    } else {
      snap->CollectIn(u, &merged);
    }
  }
  const std::span<const NodeId> all =
      snap != nullptr ? std::span<const NodeId>(merged)
      : r.direction == NeighborDirection::kOut ? graph_.OutNeighbors(u)
                                               : graph_.InNeighbors(u);
  const size_t returned = std::min<size_t>(r.limit, all.size());
  QueryResponse resp;
  std::string& j = resp.json;
  j = "{\"type\":\"neighbors\",\"node\":";
  AppendU64(&j, u);
  AppendVersionFields(&j, snap);
  j += ",\"dir\":\"";
  j += r.direction == NeighborDirection::kOut ? "out" : "in";
  j += "\",\"total\":";
  AppendU64(&j, all.size());
  j += ",\"returned\":";
  AppendU64(&j, returned);
  j += ",\"nodes\":[";
  for (size_t i = 0; i < returned; ++i) {
    if (i > 0) j += ',';
    AppendU64(&j, all[i]);
  }
  j += "],\"degraded\":false}";
  return resp;
}

QueryResponse GraphBackend::DoFingerprint(const ReadView& view) {
  const WarmIndexes& warm = *view.warm;
  if (!warm.fingerprint_ok) {
    Request r;
    r.type = RequestType::kFingerprint;
    return ErrorResponse(
        r, Status::FailedPrecondition("fingerprint unavailable: " +
                                      warm.fingerprint_error));
  }
  QueryResponse resp;
  std::string& j = resp.json;
  // Every fingerprint field is a whole-graph statistic as-of the epoch
  // base — "as_of" is the honest timestamp; "version" says when it was
  // asked.
  j = "{\"type\":\"fingerprint\"";
  AppendVersionFields(&j, LiveOf(view));
  j += ",\"density\":";
  j += JsonDouble(warm.fingerprint.density);
  j += ",\"reciprocity\":";
  j += JsonDouble(warm.fingerprint.reciprocity);
  j += ",\"clustering\":";
  j += JsonDouble(warm.fingerprint.clustering);
  j += ",\"assortativity\":";
  j += JsonDouble(warm.fingerprint.assortativity);
  j += ",\"giant_scc_fraction\":";
  j += JsonDouble(warm.fingerprint.giant_scc_fraction);
  j += ",\"mean_distance\":";
  j += JsonDouble(warm.fingerprint.mean_distance);
  j += ",\"powerlaw_alpha\":";
  j += JsonDouble(warm.fingerprint.powerlaw_alpha);
  j += ",\"attracting_fraction\":";
  j += JsonDouble(warm.fingerprint.attracting_fraction);
  j += ",\"similarity_to_paper\":";
  j += JsonDouble(warm.fingerprint_similarity);
  j += ",\"degraded\":false}";
  return resp;
}

std::unique_ptr<GraphBackend::Scratch> GraphBackend::BorrowScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<Scratch> s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return s;
    }
  }
  return std::make_unique<Scratch>(graph_.num_nodes());
}

void GraphBackend::ReturnScratch(std::unique_ptr<Scratch> s) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  scratch_pool_.push_back(std::move(s));
}

bool QueryEngine::distance_oracle_active() const {
  if (live_ != nullptr) {
    const LiveSnapshot snap = live_->Snapshot();
    const auto* warm = static_cast<const WarmIndexes*>(snap.warm_payload());
    return warm != nullptr && !warm->hub_labels.empty();
  }
  return !warm_.hub_labels.empty();
}

Result<ApplyOutcome> QueryEngine::Apply(const Mutation& m) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "mutations require a live engine (CreateLive)");
  }
  auto out = live_->Apply(m);
  if (out.ok() && compactor_.joinable() &&
      out->version - live_->base_version() >= live_options_.compact_after) {
    compactor_cv_.notify_one();
  }
  return out;
}

Result<CompactionStats> QueryEngine::CompactNow() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "compaction requires a live engine (CreateLive)");
  }
  if (live_options_.compact_path.empty()) {
    return Status::FailedPrecondition(
        "no compact_path configured in LiveEngineOptions");
  }
  const std::string path = live_options_.compact_path;
  return live_->Compact(
      path,
      [this, &path](const DiGraph& g) -> Result<std::shared_ptr<const void>> {
        WarmIndexes w;
        EN_RETURN_IF_ERROR(ComputeWarmIndexes(g, options_, &w));
        // Best-effort sidecar next to the snapshot: a restart from the
        // compacted file warm-starts instead of recomputing.
        WarmIndexKey key;
        key.graph_checksum = graph::GraphChecksum(g);
        key.config_hash = WarmConfigHash(options_.pagerank,
                                         options_.fingerprint,
                                         options_.distance_oracle);
        (void)SaveWarmIndexes(path + ".widx", key, w);
        return std::shared_ptr<const void>(
            std::make_shared<const WarmIndexes>(std::move(w)));
      });
}

void QueryEngine::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compactor_mutex_);
  for (;;) {
    compactor_cv_.wait(lock, [this] {
      return compactor_stop_ ||
             live_->applied_version() - live_->base_version() >=
                 live_options_.compact_after;
    });
    if (compactor_stop_) return;
    lock.unlock();
    auto done = CompactNow();
    lock.lock();
    if (!done.ok()) {
      ELITENET_COUNT("serve.compact.errors", 1);
      // The trigger condition is still true; back off instead of spinning
      // against a persistently failing disk.
      compactor_cv_.wait_for(lock, std::chrono::milliseconds(200),
                             [this] { return compactor_stop_; });
    }
  }
}

OverlayStats QueryEngine::overlay_stats() const {
  return live_ != nullptr ? live_->Stats() : OverlayStats();
}

uint64_t QueryEngine::applied_version() const {
  return live_ != nullptr ? live_->applied_version() : 0;
}

LiveSnapshot QueryEngine::live_snapshot() const {
  return live_ != nullptr ? live_->Snapshot() : LiveSnapshot();
}

void QueryEngine::AddStats(EngineStatsContext* ctx) const {
  ctx->nodes = graph().num_nodes();
  ctx->edges = graph().num_edges();
  ctx->oracle_active = distance_oracle_active();
  if (live_ != nullptr) {
    ctx->live = true;
    ctx->overlay = live_->Stats();
    ctx->edges = ctx->overlay.live_edges;
  }
}

}  // namespace serve
}  // namespace elitenet
