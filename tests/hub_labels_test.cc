// Pruned landmark labeling tests: the oracle must agree with BFS on
// every (s, t) pair of randomized digraphs — exactness is the whole
// contract — the label arrays must satisfy the structural invariants
// ValidateHubLabels enforces on load, and the construction budget must
// abort cleanly (empty result, never a partial one) on graphs where
// labels would grow superlinearly. The build must also reproduce, array
// for array, a plain sequential reference at any thread count.

#include "graph/hub_labels.h"

#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/verified_network.h"
#include "graph/builder.h"
#include "graph/frontier.h"
#include "graph/traversal.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

// Ground truth: forward BFS distances from every source.
std::vector<std::vector<uint32_t>> AllPairsBfs(const DiGraph& g) {
  std::vector<std::vector<uint32_t>> dist(g.num_nodes());
  ScratchArena arena(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    Bfs(g, s, &arena);
    dist[s].resize(g.num_nodes());
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      dist[s][t] = arena.DistanceOr(t, kInfiniteDistance);
    }
  }
  return dist;
}

DiGraph RandomDigraph(NodeId n, double p, uint64_t seed) {
  GraphBuilder b(n);
  util::Rng rng(seed);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.Bernoulli(p)) EXPECT_TRUE(b.AddEdge(u, v).ok());
    }
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

void ExpectOracleMatchesBfs(const DiGraph& g, const std::string& what) {
  const HubLabels labels = BuildHubLabels(g);
  ASSERT_FALSE(labels.empty()) << what;
  ASSERT_TRUE(ValidateHubLabels(labels, g.num_nodes()).ok()) << what;
  const auto truth = AllPairsBfs(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      ASSERT_EQ(labels.Distance(s, t), truth[s][t])
          << what << ": dist(" << s << ", " << t << ")";
    }
  }
}

// The textbook construction: one root at a time in degree order, forward
// BFS then backward BFS, level by level, with an explicit infinity test in
// the prune probe. Arrays are indexed by original id, as BuildHubLabels'.
struct ReferenceLabels {
  std::vector<EdgeIdx> out_offsets, in_offsets;
  std::vector<HubLabelEntry> out_entries, in_entries;
};

ReferenceLabels SequentialReference(const DiGraph& g) {
  const NodeId n = g.num_nodes();
  const DegreeRelabeling rel = g.RelabelByDegree();
  std::vector<std::vector<HubLabelEntry>> out_rows(n), in_rows(n);
  std::vector<uint32_t> root_dist(n, kInfiniteDistance);
  ScratchArena arena(n);
  auto pruned_bfs = [&](NodeId r, bool forward,
                        std::vector<std::vector<HubLabelEntry>>& rows,
                        const std::vector<HubLabelEntry>& opposite) {
    for (HubLabelEntry e : opposite) {
      root_dist[HubLabelRank(e)] = HubLabelDist(e);
    }
    arena.BeginEpoch();
    arena.Visit(r, 0, r);
    rows[r].push_back(PackHubLabel(r, 0));
    std::vector<NodeId> frontier = {r};
    for (uint32_t depth = 1; !frontier.empty(); ++depth) {
      std::vector<NodeId> level;
      for (NodeId u : frontier) {
        for (NodeId v : forward ? rel.graph.OutNeighbors(u)
                                : rel.graph.InNeighbors(u)) {
          if (!arena.Visited(v)) {
            arena.Visit(v, depth, v);
            level.push_back(v);
          }
        }
      }
      frontier.clear();
      for (NodeId v : level) {
        bool pruned = false;
        for (HubLabelEntry e : rows[v]) {
          const uint32_t rd = root_dist[HubLabelRank(e)];
          if (rd == kInfiniteDistance) continue;
          if (uint64_t{rd} + HubLabelDist(e) <= depth) pruned = true;
        }
        if (pruned) continue;
        rows[v].push_back(PackHubLabel(r, depth));
        frontier.push_back(v);
      }
    }
    for (HubLabelEntry e : opposite) {
      root_dist[HubLabelRank(e)] = kInfiniteDistance;
    }
  };
  for (NodeId r = 0; r < n; ++r) {
    pruned_bfs(r, /*forward=*/true, in_rows, out_rows[r]);
    pruned_bfs(r, /*forward=*/false, out_rows, in_rows[r]);
  }
  ReferenceLabels ref;
  ref.out_offsets.push_back(0);
  ref.in_offsets.push_back(0);
  for (NodeId o = 0; o < n; ++o) {
    const auto& out = out_rows[rel.old_to_new[o]];
    const auto& in = in_rows[rel.old_to_new[o]];
    ref.out_entries.insert(ref.out_entries.end(), out.begin(), out.end());
    ref.in_entries.insert(ref.in_entries.end(), in.begin(), in.end());
    ref.out_offsets.push_back(ref.out_entries.size());
    ref.in_offsets.push_back(ref.in_entries.size());
  }
  return ref;
}

void ExpectSameArrays(const HubLabels& got, const ReferenceLabels& want,
                      const std::string& what) {
  EXPECT_EQ(got.out_offsets(), want.out_offsets) << what;
  EXPECT_EQ(got.out_entries(), want.out_entries) << what;
  EXPECT_EQ(got.in_offsets(), want.in_offsets) << what;
  EXPECT_EQ(got.in_entries(), want.in_entries) << what;
}

// Threads of this process, counted from the kernel's task list.
size_t LiveThreads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

DiGraph Chain(NodeId len) {
  GraphBuilder b(len);
  for (NodeId u = 0; u + 1 < len; ++u) EXPECT_TRUE(b.AddEdge(u, u + 1).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(HubLabelsTest, EmptyGraphBuildsEmptyOracle) {
  GraphBuilder b(0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const HubLabels labels = BuildHubLabels(*g);
  EXPECT_EQ(labels.num_nodes(), 0u);
  EXPECT_TRUE(ValidateHubLabels(labels, 0).ok());
}

TEST(HubLabelsTest, SingleNodeAndSelfDistance) {
  GraphBuilder b(1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const HubLabels labels = BuildHubLabels(*g);
  ASSERT_FALSE(labels.empty());
  EXPECT_EQ(labels.Distance(0, 0), 0u);
}

TEST(HubLabelsTest, DirectedPathIsAsymmetric) {
  constexpr NodeId kLen = 12;
  GraphBuilder b(kLen);
  for (NodeId u = 0; u + 1 < kLen; ++u) {
    ASSERT_TRUE(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const HubLabels labels = BuildHubLabels(*g);
  ASSERT_FALSE(labels.empty());
  for (NodeId s = 0; s < kLen; ++s) {
    for (NodeId t = 0; t < kLen; ++t) {
      const uint32_t want = s <= t ? t - s : kInfiniteDistance;
      EXPECT_EQ(labels.Distance(s, t), want) << s << " -> " << t;
    }
  }
}

TEST(HubLabelsTest, MatchesBfsOnRandomDigraphs) {
  // Sparse through dense, several seeds each: disconnected fragments,
  // one giant SCC, and everything between.
  for (const double p : {0.02, 0.08, 0.25}) {
    for (const uint64_t seed : {1u, 7u, 99u}) {
      const DiGraph g = RandomDigraph(60, p, seed);
      ExpectOracleMatchesBfs(
          g, "p=" + std::to_string(p) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(HubLabelsTest, MatchesBfsOnGeneratedNetwork) {
  // The smallest scale the generator's default density supports. Full
  // all-pairs would be 16M checks; BFS from a spread of sources against
  // every target keeps the same exactness bar at test speed.
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const DiGraph& g = net->graph;

  const HubLabels labels = BuildHubLabels(g);
  ASSERT_FALSE(labels.empty());
  ASSERT_TRUE(ValidateHubLabels(labels, g.num_nodes()).ok());

  ScratchArena arena(g.num_nodes());
  util::Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformU64(g.num_nodes()));
    Bfs(g, s, &arena);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      ASSERT_EQ(labels.Distance(s, t),
                arena.DistanceOr(t, kInfiniteDistance))
          << "dist(" << s << ", " << t << ")";
    }
  }
}

TEST(HubLabelsTest, StatsDescribeTheLabelArrays) {
  const DiGraph g = RandomDigraph(50, 0.1, 3);
  const HubLabels labels = BuildHubLabels(g);
  ASSERT_FALSE(labels.empty());
  const HubLabelStats stats = labels.Stats();
  EXPECT_EQ(stats.out_entries, labels.out_entries().size());
  EXPECT_EQ(stats.in_entries, labels.in_entries().size());
  // Every node carries at least its own hub in both directions.
  EXPECT_GE(stats.out_entries, static_cast<uint64_t>(g.num_nodes()));
  EXPECT_GE(stats.in_entries, static_cast<uint64_t>(g.num_nodes()));
  EXPECT_GE(stats.max_out_entries, 1u);
  EXPECT_GE(stats.avg_out_entries, 1.0);
  EXPECT_EQ(stats.bytes, (labels.out_entries().size() +
                          labels.in_entries().size()) *
                                 sizeof(HubLabelEntry) +
                             (labels.out_offsets().size() +
                              labels.in_offsets().size()) *
                                 sizeof(EdgeIdx));
}

TEST(HubLabelsTest, BudgetAbortReturnsEmptyNotPartial) {
  const DiGraph g = RandomDigraph(80, 0.1, 11);
  HubLabelOptions opts;
  opts.max_avg_label_entries = 1;  // impossible: self-labels alone hit it
  const HubLabels labels = BuildHubLabels(g, opts);
  EXPECT_TRUE(labels.empty());
  EXPECT_TRUE(labels.out_offsets().empty());
  EXPECT_TRUE(labels.out_entries().empty());
  EXPECT_TRUE(labels.in_offsets().empty());
  EXPECT_TRUE(labels.in_entries().empty());
  // "Not built" is a valid persisted state.
  EXPECT_TRUE(ValidateHubLabels(labels, g.num_nodes()).ok());
}

TEST(HubLabelsTest, MatchesSequentialReferenceAtAnyThreadCount) {
  std::vector<std::pair<std::string, DiGraph>> graphs;
  for (const double p : {0.02, 0.08, 0.25}) {
    for (const uint64_t seed : {1u, 7u, 99u}) {
      graphs.emplace_back(
          "p=" + std::to_string(p) + " seed=" + std::to_string(seed),
          RandomDigraph(60, p, seed));
    }
  }
  // The smallest scale the generator's default density supports.
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  graphs.emplace_back("generated 4000 users", std::move(net->graph));

  for (const auto& [what, g] : graphs) {
    const ReferenceLabels want = SequentialReference(g);
    for (const int threads : {1, 2, 4}) {
      util::SetThreadCount(threads);
      ExpectSameArrays(BuildHubLabels(g), want,
                       what + " threads=" + std::to_string(threads));
    }
  }
  util::SetThreadCount(0);
}

TEST(HubLabelsTest, BudgetAbortWithPartnerThreadLeavesNoThreadBehind) {
  // A directed chain defeats pruning: labels grow quadratically.
  const DiGraph chain = Chain(2000);
  HubLabelOptions tight;
  tight.max_avg_label_entries = 8;
  util::SetThreadCount(4);
  // Spawn the 4-thread pool first, so only the build's own threads count.
  util::ParallelFor(0, 64, 1, [](size_t, size_t) {});
  const size_t before = LiveThreads();
  EXPECT_TRUE(BuildHubLabels(chain, tight).empty());
  EXPECT_EQ(LiveThreads(), before);

  // The next build, on the same pool, is complete and exact.
  const DiGraph g = RandomDigraph(60, 0.08, 7);
  ExpectSameArrays(BuildHubLabels(g), SequentialReference(g), "after abort");
  EXPECT_EQ(LiveThreads(), before);
  util::SetThreadCount(0);
}

TEST(HubLabelsTest, ValidateRejectsStructuralDamage) {
  const DiGraph g = RandomDigraph(40, 0.1, 5);
  const HubLabels good = BuildHubLabels(g);
  ASSERT_FALSE(good.empty());
  const NodeId n = g.num_nodes();

  auto arrays = [&](auto mutate) {
    std::vector<EdgeIdx> oo(good.out_offsets().begin(),
                            good.out_offsets().end());
    std::vector<HubLabelEntry> oe(good.out_entries().begin(),
                                  good.out_entries().end());
    std::vector<EdgeIdx> io(good.in_offsets().begin(),
                            good.in_offsets().end());
    std::vector<HubLabelEntry> ie(good.in_entries().begin(),
                                  good.in_entries().end());
    mutate(oo, oe, io, ie);
    return HubLabels::FromArrays(std::move(oo), std::move(oe), std::move(io),
                                 std::move(ie));
  };
  using OffV = std::vector<EdgeIdx>;
  using EntV = std::vector<HubLabelEntry>;

  // Wrong offsets length.
  EXPECT_FALSE(ValidateHubLabels(
                   arrays([](OffV& oo, EntV&, OffV&, EntV&) {
                     oo.pop_back();
                   }),
                   n)
                   .ok());
  // Offsets not monotone.
  EXPECT_FALSE(ValidateHubLabels(
                   arrays([](OffV& oo, EntV&, OffV&, EntV&) {
                     std::swap(oo[1], oo[2]);
                   }),
                   n)
                   .ok());
  // Hub rank out of range.
  EXPECT_FALSE(ValidateHubLabels(
                   arrays([&](OffV&, EntV& oe, OffV&, EntV&) {
                     oe[0] = PackHubLabel(n, 0);
                   }),
                   n)
                   .ok());
  // Ranks within a row not strictly ascending.
  EXPECT_FALSE(ValidateHubLabels(
                   arrays([&](OffV& oo, EntV& oe, OffV&, EntV&) {
                     for (NodeId u = 0; u < n; ++u) {
                       if (oo[u + 1] - oo[u] >= 2) {
                         std::swap(oe[oo[u]], oe[oo[u] + 1]);
                         break;
                       }
                     }
                   }),
                   n)
                   .ok());
  // One direction present, the other missing: partial state is invalid.
  EXPECT_FALSE(ValidateHubLabels(
                   arrays([](OffV&, EntV&, OffV& io, EntV& ie) {
                     io.clear();
                     ie.clear();
                   }),
                   n)
                   .ok());
  // Node-count mismatch against the caller's graph.
  EXPECT_FALSE(ValidateHubLabels(good, n + 1).ok());
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
