#include "graph/hub_labels.h"

#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "graph/traversal.h"
#include "util/parallel.h"

namespace elitenet {
namespace graph {
namespace {

using LabelRows = std::vector<std::vector<HubLabelEntry>>;

// The prune probe needs no infinity test: a hub the root cannot reach
// reads UINT32_MAX, and UINT32_MAX + dist never fits under a BFS depth.
static_assert(kInfiniteDistance == UINT32_MAX);

// One direction of a hub's pruned BFS. The forward lane expands out-edges
// and appends (root, d(root->v)) to L_in(v); the backward lane expands
// in-edges and appends to L_out(v). A lane's probe reads only the rows it
// appends to, its own visited stamps and its dense view of the root's
// *opposite* label set (root_dist[h] = d(root->h) forward, d(h->root)
// backward), so a root's two lanes share nothing mutable and run at once.
//
// Prune soundness: a candidate's row holds only hubs ranked before the
// root (a (root, ·) entry would mean the node was already visited), and
// both views are densified before either lane pushes its root entry, so
// the probe is exactly Query_{root-1}: the sequential algorithm, label
// for label.
class Lane {
 public:
  Lane(NodeId n, bool forward, LabelRows* rows)
      : forward_(forward), rows_(*rows), seen_(n, 0),
        root_dist_(n, kInfiniteDistance) {}
  Lane(const Lane&) = delete;  // a partner thread holds its address
  Lane& operator=(const Lane&) = delete;

  void Densify(const std::vector<HubLabelEntry>& opposite) {
    for (const HubLabelEntry e : opposite) {
      root_dist_[HubLabelRank(e)] = HubLabelDist(e);
    }
  }
  void Clear(const std::vector<HubLabelEntry>& opposite) {
    for (const HubLabelEntry e : opposite) {
      root_dist_[HubLabelRank(e)] = kInfiniteDistance;
    }
  }

  void Run(const DiGraph& rg, NodeId root) {
    // seen_[v] == root + 1 marks v visited by this root's BFS.
    const NodeId stamp = root + 1;
    seen_[root] = stamp;
    // The root is never prunable: hubs before it cannot certify distance 0.
    rows_[root].push_back(PackHubLabel(root, 0));
    ++appended_;
    frontier_.assign(1, root);
    for (uint32_t depth = 1; !frontier_.empty(); ++depth) {
      next_.clear();
      for (const NodeId u : frontier_) {
        for (const NodeId v :
             forward_ ? rg.OutNeighbors(u) : rg.InNeighbors(u)) {
          if (seen_[v] == stamp) continue;
          seen_[v] = stamp;
          // The verdict reads only v's own row and the fixed view, so
          // probing on discovery matches probing the level afterwards.
          if (Certified(rows_[v], depth)) continue;  // no label, no expansion
          rows_[v].push_back(PackHubLabel(root, depth));
          next_.push_back(v);
          ++appended_;
        }
      }
      frontier_.swap(next_);
    }
  }

  uint64_t appended() const { return appended_; }

 private:
  // Only "is there a certificate <= depth" matters, so stop at the first
  // one — rows lead with the highest-degree hubs, which certify almost
  // every pruned candidate in one or two probes.
  bool Certified(const std::vector<HubLabelEntry>& row,
                 uint32_t depth) const {
    for (const HubLabelEntry e : row) {
      if (uint64_t{root_dist_[HubLabelRank(e)]} + HubLabelDist(e) <= depth) {
        return true;
      }
    }
    return false;
  }

  const bool forward_;
  LabelRows& rows_;
  std::vector<NodeId> seen_;
  std::vector<uint32_t> root_dist_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  uint64_t appended_ = 0;
};

// Waits until `a` moves off `old` and returns the new value. A lane's BFS
// mostly ends within microseconds, so spin briefly; past that, block.
uint32_t AwaitChange(const std::atomic<uint32_t>& a, uint32_t old) {
  for (int spin = 0; spin < 4096; ++spin) {
    const uint32_t now = a.load(std::memory_order_acquire);
    if (now != old) return now;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

// Runs one lane on a dedicated thread, one root per handoff: Post(r)
// starts root r's BFS, Wait() returns once it is done and rethrows what
// the BFS threw. Stopping is its own flag, so the final wake-up never runs
// a stale BFS, and the destructor joins the thread on every exit path.
class PartnerThread {
 public:
  PartnerThread(const DiGraph& rg, Lane* lane)
      : thread_([this, &rg, lane] {
          for (uint32_t seen = 0;;) {
            seen = AwaitChange(go_, seen);
            if (stop_) return;
            try {
              lane->Run(rg, root_);
            } catch (...) {
              error_ = std::current_exception();
            }
            done_.store(seen, std::memory_order_release);
            done_.notify_one();
          }
        }) {}
  PartnerThread(const PartnerThread&) = delete;
  PartnerThread& operator=(const PartnerThread&) = delete;
  ~PartnerThread() {
    stop_ = true;
    Signal();
    thread_.join();
  }

  void Post(NodeId root) {
    root_ = root;
    Signal();
  }
  void Wait() {
    AwaitChange(done_, posted_ - 1);
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void Signal() {
    go_.store(++posted_, std::memory_order_release);
    go_.notify_one();
  }

  // root_ is published by the release store to go_, error_ by the one to
  // done_. stop_ is atomic because an exception can unwind the build while
  // a posted BFS has not yet been picked up.
  NodeId root_ = 0;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
  uint32_t posted_ = 0;
  std::atomic<uint32_t> go_{0};
  std::atomic<uint32_t> done_{0};
  std::thread thread_;  // last: starts once the fields above exist
};

// Flattens per-node rows (indexed by relabeled id) into a CSR pair indexed
// by original id. Rows are already sorted ascending by hub rank — labels
// were appended in hub-processing order.
void Flatten(const LabelRows& rows,
             const std::vector<NodeId>& old_to_new,
             std::vector<EdgeIdx>* offsets,
             std::vector<HubLabelEntry>* entries) {
  const size_t n = old_to_new.size();
  offsets->resize(n + 1);
  (*offsets)[0] = 0;
  for (size_t o = 0; o < n; ++o) {
    (*offsets)[o + 1] = (*offsets)[o] + rows[old_to_new[o]].size();
  }
  entries->resize((*offsets)[n]);
  util::ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t o = lo; o < hi; ++o) {
      const std::vector<HubLabelEntry>& row = rows[old_to_new[o]];
      std::copy(row.begin(), row.end(), entries->begin() + (*offsets)[o]);
    }
  });
}

}  // namespace

uint32_t HubLabels::Distance(NodeId s, NodeId t) const {
  if (s == t) return 0;
  const std::span<const HubLabelEntry> out = OutLabels(s);
  const std::span<const HubLabelEntry> in = InLabels(t);
  uint64_t best = UINT64_MAX;
  size_t i = 0;
  size_t j = 0;
  while (i < out.size() && j < in.size()) {
    const uint32_t ho = HubLabelRank(out[i]);
    const uint32_t hi = HubLabelRank(in[j]);
    if (ho < hi) {
      ++i;
    } else if (hi < ho) {
      ++j;
    } else {
      const uint64_t d =
          uint64_t{HubLabelDist(out[i])} + HubLabelDist(in[j]);
      if (d < best) best = d;
      ++i;
      ++j;
    }
  }
  return best == UINT64_MAX ? kInfiniteDistance
                            : static_cast<uint32_t>(best);
}

HubLabelStats HubLabels::Stats() const {
  HubLabelStats stats;
  const NodeId n = num_nodes();
  stats.out_entries = out_entries_.size();
  stats.in_entries = in_entries_.size();
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t out_row =
        static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
    const uint32_t in_row =
        static_cast<uint32_t>(in_offsets_[u + 1] - in_offsets_[u]);
    if (out_row > stats.max_out_entries) stats.max_out_entries = out_row;
    if (in_row > stats.max_in_entries) stats.max_in_entries = in_row;
  }
  if (n > 0) {
    stats.avg_out_entries = static_cast<double>(stats.out_entries) / n;
    stats.avg_in_entries = static_cast<double>(stats.in_entries) / n;
  }
  stats.bytes = (out_offsets_.size() + in_offsets_.size()) * sizeof(EdgeIdx) +
                (out_entries_.size() + in_entries_.size()) *
                    sizeof(HubLabelEntry);
  return stats;
}

HubLabels HubLabels::FromArrays(std::vector<EdgeIdx> out_offsets,
                                std::vector<HubLabelEntry> out_entries,
                                std::vector<EdgeIdx> in_offsets,
                                std::vector<HubLabelEntry> in_entries) {
  HubLabels labels;
  labels.out_offsets_ = std::move(out_offsets);
  labels.out_entries_ = std::move(out_entries);
  labels.in_offsets_ = std::move(in_offsets);
  labels.in_entries_ = std::move(in_entries);
  return labels;
}

HubLabels BuildHubLabels(const DiGraph& g, const HubLabelOptions& options) {
  HubLabels labels;
  const NodeId n = g.num_nodes();
  if (n == 0) {
    labels.out_offsets_.assign(1, 0);
    labels.in_offsets_.assign(1, 0);
    return labels;
  }

  const DegreeRelabeling rel = g.RelabelByDegree();
  const DiGraph& rg = rel.graph;

  // Rows indexed by relabeled id == hub rank; hub rank r processes node r.
  LabelRows out_rows(n), in_rows(n);
  const uint64_t budget =
      options.max_avg_label_entries == 0
          ? UINT64_MAX
          : static_cast<uint64_t>(options.max_avg_label_entries) * n;

  Lane forward(n, /*forward=*/true, &in_rows);
  Lane backward(n, /*forward=*/false, &out_rows);
  // Declared after everything its lane touches, so it is joined first.
  std::optional<PartnerThread> partner;
  if (util::ThreadCount() > 1 && !util::InParallelRegion()) {
    partner.emplace(rg, &backward);
  }

  for (NodeId r = 0; r < n; ++r) {
    // Both views before either BFS runs: each lane pushes its root entry
    // into the row the other lane's view is read from.
    forward.Densify(out_rows[r]);
    backward.Densify(in_rows[r]);
    if (partner) partner->Post(r);
    else backward.Run(rg, r);
    forward.Run(rg, r);
    if (partner) partner->Wait();
    forward.Clear(out_rows[r]);
    backward.Clear(in_rows[r]);
    if (forward.appended() > budget || backward.appended() > budget) {
      return HubLabels{};
    }
  }
  partner.reset();

  Flatten(out_rows, rel.old_to_new, &labels.out_offsets_,
          &labels.out_entries_);
  Flatten(in_rows, rel.old_to_new, &labels.in_offsets_, &labels.in_entries_);
  return labels;
}

namespace {

Status ValidateSide(const char* side, const std::vector<EdgeIdx>& offsets,
                    const std::vector<HubLabelEntry>& entries, NodeId n) {
  if (offsets.size() != static_cast<size_t>(n) + 1) {
    return Status::Corruption(std::string("hub label ") + side +
                              " offsets have wrong length");
  }
  if (offsets[0] != 0 || offsets[n] != entries.size()) {
    return Status::Corruption(std::string("hub label ") + side +
                              " offsets do not span the entry array");
  }
  for (NodeId u = 0; u < n; ++u) {
    if (offsets[u + 1] < offsets[u]) {
      return Status::Corruption(std::string("hub label ") + side +
                                " offsets decrease");
    }
    uint64_t prev_rank = UINT64_MAX;
    for (EdgeIdx i = offsets[u]; i < offsets[u + 1]; ++i) {
      const uint32_t rank = HubLabelRank(entries[i]);
      const uint32_t dist = HubLabelDist(entries[i]);
      if (rank >= n || dist >= n) {
        return Status::Corruption(std::string("hub label ") + side +
                                  " entry out of range");
      }
      if (prev_rank != UINT64_MAX && rank <= prev_rank) {
        return Status::Corruption(std::string("hub label ") + side +
                                  " row not strictly ascending");
      }
      prev_rank = rank;
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateHubLabels(const HubLabels& labels, NodeId expected_nodes) {
  if (labels.empty()) {
    // "Oracle not built" is a legal persisted state, but only when all
    // four arrays are absent together.
    if (!labels.out_entries().empty() || !labels.in_offsets().empty() ||
        !labels.in_entries().empty()) {
      return Status::Corruption("hub labels partially present");
    }
    return Status::OK();
  }
  EN_RETURN_IF_ERROR(ValidateSide("out", labels.out_offsets(),
                                  labels.out_entries(), expected_nodes));
  EN_RETURN_IF_ERROR(ValidateSide("in", labels.in_offsets(),
                                  labels.in_entries(), expected_nodes));
  return Status::OK();
}

}  // namespace graph
}  // namespace elitenet
