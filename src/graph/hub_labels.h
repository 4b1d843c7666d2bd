// Pruned landmark labeling (2-hop hub labels) — an exact distance oracle
// for directed graphs, after Akiba, Iwata & Yoshida (SIGMOD'13).
//
// Every node carries two label sets: L_out(v) = {(h, d(v->h))} for hubs h
// reachable *from* v, and L_in(v) = {(h, d(h->v))} for hubs that reach v.
// The directed distance is then a sorted-merge intersection:
//
//   dist(s, t) = min over h in L_out(s) ∩ L_in(t) of d(s->h) + d(h->t)
//
// which is exact for *every* pair when the labels come from pruned BFS in
// a fixed total order over hubs: process nodes in degree-descending order
// (the RelabelByDegree order — biggest hubs first); for hub k run one
// forward and one reverse BFS, and at each visited node u at depth d,
// *prune* (add no label, expand no edge) whenever the first k-1 hubs
// already certify a distance <= d. On low-diameter skewed graphs — the
// verified-network shape — almost every BFS collapses after a handful of
// nodes, so total label size stays near-linear and a query is a
// microsecond merge instead of a graph traversal.
//
// Determinism: the label set is a pure function of (graph, hub order) —
// pruning consults only labels of earlier hubs, which are fixed for the
// whole BFS of hub k. Each hub's forward and backward BFS run as two
// lanes that share nothing mutable: forward appends to and probes only
// L_in rows, backward only L_out rows, and both dense root views are
// filled before either lane pushes its root entry. With more than one
// util::ThreadCount() thread the backward lane runs on a partner thread
// beside the forward one, one hub at a time; with one, the lanes run in
// turn. Each BFS is serial, so output is bit-identical at any thread
// count.
//
// The flat representation is CSR-shaped (offsets + packed entry array)
// specifically so the serving layer can persist it as two pairs of
// checksummed `.widx` sections and mmap it back without re-deriving
// anything (serve/warm_index_cache.h).

#ifndef ELITENET_GRAPH_HUB_LABELS_H_
#define ELITENET_GRAPH_HUB_LABELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace elitenet {
namespace graph {

/// Packs one label entry: high 32 bits the hub's rank in the degree order
/// (rank 0 = biggest hub), low 32 bits the BFS distance. Rows sorted by
/// packed value are sorted by hub rank, so intersection is a linear merge
/// and persistence is a plain u64 array.
using HubLabelEntry = uint64_t;

inline constexpr HubLabelEntry PackHubLabel(uint32_t hub_rank,
                                            uint32_t dist) {
  return (static_cast<uint64_t>(hub_rank) << 32) | dist;
}
inline constexpr uint32_t HubLabelRank(HubLabelEntry e) {
  return static_cast<uint32_t>(e >> 32);
}
inline constexpr uint32_t HubLabelDist(HubLabelEntry e) {
  return static_cast<uint32_t>(e);
}

struct HubLabelOptions {
  /// Construction budget: abort (returning an unbuilt oracle) once the
  /// average label count per node per direction exceeds this. Guards the
  /// pathological shapes where pruning cannot win — a long directed chain
  /// drives total label size toward O(n^2) — so callers degrade to
  /// query-time BFS instead of stalling startup. The default clears the
  /// verified network at bench scale (measured ~486/543 avg out/in
  /// entries at 40k users) with headroom, while a 20k-node chain still
  /// trips it within the first ~800 hubs. 0 disables the budget.
  uint32_t max_avg_label_entries = 768;
};

/// Aggregate label-size statistics (the bench/report surface).
struct HubLabelStats {
  uint64_t out_entries = 0;
  uint64_t in_entries = 0;
  uint32_t max_out_entries = 0;  ///< largest single L_out row
  uint32_t max_in_entries = 0;   ///< largest single L_in row
  double avg_out_entries = 0.0;
  double avg_in_entries = 0.0;
  uint64_t bytes = 0;  ///< flat arrays, offsets included
};

/// The flat 2-hop labeling. Default-constructed (or budget-aborted) state
/// is "not built": empty() is true and Distance must not be called.
class HubLabels {
 public:
  /// Node count the labeling describes; 0 when not built.
  NodeId num_nodes() const {
    return out_offsets_.empty()
               ? 0
               : static_cast<NodeId>(out_offsets_.size() - 1);
  }
  bool empty() const { return out_offsets_.empty(); }

  /// Exact directed distance s -> t by label intersection;
  /// UINT32_MAX (graph::kInfiniteDistance) when t is unreachable from s.
  /// Requires a built labeling and in-range ids.
  uint32_t Distance(NodeId s, NodeId t) const;

  HubLabelStats Stats() const;

  std::span<const HubLabelEntry> OutLabels(NodeId u) const {
    return {out_entries_.data() + out_offsets_[u],
            out_entries_.data() + out_offsets_[u + 1]};
  }
  std::span<const HubLabelEntry> InLabels(NodeId u) const {
    return {in_entries_.data() + in_offsets_[u],
            in_entries_.data() + in_offsets_[u + 1]};
  }

  /// Raw arrays for persistence (serve/warm_index_cache.cc).
  const std::vector<EdgeIdx>& out_offsets() const { return out_offsets_; }
  const std::vector<HubLabelEntry>& out_entries() const {
    return out_entries_;
  }
  const std::vector<EdgeIdx>& in_offsets() const { return in_offsets_; }
  const std::vector<HubLabelEntry>& in_entries() const {
    return in_entries_;
  }

  /// Adopts restored arrays (the sidecar load path). The caller must have
  /// run ValidateHubLabels first; this does no checking of its own.
  static HubLabels FromArrays(std::vector<EdgeIdx> out_offsets,
                              std::vector<HubLabelEntry> out_entries,
                              std::vector<EdgeIdx> in_offsets,
                              std::vector<HubLabelEntry> in_entries);

 private:
  friend HubLabels BuildHubLabels(const DiGraph& g,
                                  const HubLabelOptions& options);

  // Rows indexed by *original* node id; entries carry hub ranks.
  std::vector<EdgeIdx> out_offsets_;   ///< n+1, or empty when not built
  std::vector<HubLabelEntry> out_entries_;
  std::vector<EdgeIdx> in_offsets_;
  std::vector<HubLabelEntry> in_entries_;
};

/// Builds the pruned labeling. Returns an empty (unbuilt) HubLabels when
/// the construction budget is exceeded — never a partial labeling.
/// Bit-identical output at any util::ThreadCount().
HubLabels BuildHubLabels(const DiGraph& g,
                         const HubLabelOptions& options = {});

/// Structural validation for labelings restored from disk: offsets are
/// monotone and sized n+1, hub ranks are < n, distances are < n, and every
/// row is strictly ascending by hub rank. An empty labeling (all four
/// arrays empty) is valid — it means "oracle not built".
Status ValidateHubLabels(const HubLabels& labels, NodeId expected_nodes);

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_HUB_LABELS_H_
