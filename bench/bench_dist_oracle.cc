// Distance-oracle bench: proves the hub-label fast path turns dist from
// the one query that traverses the graph into a warm-index lookup.
//
// Generates the verified network, builds the pruned landmark labeling
// once (timed by the warm build's "serve.warm.dist_oracle" span and
// persisted to a temporary .widx sidecar), and drives two engines over the
// same random pair stream — one with the oracle (the default, restored
// from that sidecar instead of rebuilt), one forced onto the
// bidirectional-BFS fallback — with the result cache off so every sample
// measures compute.
// Three hard assertions make it a correctness harness as well as a bench:
//   * oracle responses are byte-identical to the BFS fallback's for every
//     sampled pair (same graph, same request, same JSON);
//   * zero degraded oracle responses at the default dist deadline — the
//     ROADMAP open-item target (BFS at the same deadline may degrade;
//     that count is reported for contrast);
//   * p99(dist via oracle) <= --max-ratio x p99(topk), i.e. dist now
//     costs like a warm-index query, not a traversal (--max-ratio
//     defaults to 2, relaxed in the ctest smoke where tiny absolute
//     latencies make the ratio noisy).
// Any failing assertion exits non-zero (ctest label "perf").
//
// Emits BENCH_dist_oracle.json: build time, label-size stats (avg/max
// entries per node per direction, flat bytes), oracle/BFS/topk latency
// percentiles, and each assertion's outcome.
//
// Usage: bench_dist_oracle [--scale=N] [--seed=S] [--pairs=P]
//                          [--deadline-us=D] [--max-ratio=R] [--json=PATH]

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gen/verified_network.h"
#include "graph/hub_labels.h"
#include "serve/engine.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  unsigned long long count = 0;
};

LatencySummary Summarize(const LatencySketch& lat) {
  return {lat.QuantileUs(0.50), lat.QuantileUs(0.95), lat.QuantileUs(0.99),
          lat.count()};
}

// A scratch file path, removed (errors ignored) when constructed, so no
// stale file is read, and again when it goes out of scope.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {
    Remove();
  }
  ~ScratchFile() { Remove(); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  void Remove() const {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

serve::Request DistRequest(graph::NodeId s, graph::NodeId t,
                           uint64_t deadline_us) {
  serve::Request r;
  r.type = serve::RequestType::kDistance;
  r.node = s;
  r.target = t;
  r.deadline_us = deadline_us;
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  std::string json_path = "BENCH_dist_oracle.json";
  size_t num_pairs = 2000;
  uint64_t deadline_us = 2000;
  double max_ratio = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--pairs=", 8) == 0) {
      num_pairs = std::strtoull(argv[i] + 8, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--deadline-us=", 14) == 0) {
      deadline_us = std::strtoull(argv[i] + 14, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--max-ratio=", 12) == 0) {
      max_ratio = std::strtod(argv[i] + 12, nullptr);
    }
  }
  if (args.threads > 0) util::SetThreadCount(args.threads);

  gen::VerifiedNetworkConfig gcfg;
  gcfg.num_users = args.num_users;
  gcfg.seed = args.seed;
  auto net = gen::GenerateVerifiedNetwork(gcfg);
  if (!net.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 net.status().ToString().c_str());
    return 1;
  }
  const graph::DiGraph& g = net->graph;
  std::printf("dist oracle bench: n=%u m=%llu pairs=%zu deadline=%lluus\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              num_pairs, static_cast<unsigned long long>(deadline_us));

  // One warm build, persisted to a temporary sidecar: its
  // serve.warm.dist_oracle span is the construction time, and the oracle
  // engine below restores it instead of building the labels again.
  const bench::ScratchFile sidecar(
      (std::filesystem::temp_directory_path() /
       ("bench_dist_oracle_" + std::to_string(::getpid()) + ".widx"))
          .string());
  serve::EngineOptions oracle_opts;
  oracle_opts.cache_capacity = 0;
  oracle_opts.warm_index_path = sidecar.path();
  double build_seconds = -1.0;
  graph::HubLabelStats stats;
  {
    util::SpanCapture capture(4096);
    bool from_cache = false;
    auto warm = serve::LoadOrBuildWarmIndexes(g, oracle_opts, &from_cache);
    if (!warm.ok()) {
      std::fprintf(stderr, "warm build failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    for (const util::CapturedSpan& span : capture.Take()) {
      if (std::strcmp(span.name, "serve.warm.dist_oracle") == 0) {
        build_seconds = static_cast<double>(span.duration_ns) * 1e-9;
      }
    }
    if (warm->hub_labels.empty()) {
      std::fprintf(stderr,
                   "FAIL: oracle construction exceeded its label budget on "
                   "the verified network\n");
      return 1;
    }
    stats = warm->hub_labels.Stats();
  }
  if (build_seconds < 0.0) {
    std::fprintf(stderr, "FAIL: no serve.warm.dist_oracle span captured\n");
    return 1;
  }
  std::printf(
      "  built in %.2fs: avg %.1f out / %.1f in entries per node "
      "(max %u/%u), %.1f MiB flat\n",
      build_seconds, stats.avg_out_entries, stats.avg_in_entries,
      stats.max_out_entries, stats.max_in_entries,
      static_cast<double>(stats.bytes) / (1024.0 * 1024.0));

  // Two engines, cache off: every Execute measures the compute path.
  serve::EngineOptions bfs_opts;
  bfs_opts.cache_capacity = 0;
  bfs_opts.distance_oracle = false;
  auto oracle_engine = serve::QueryEngine::Create(g, oracle_opts);
  auto bfs_engine = serve::QueryEngine::Create(g, bfs_opts);
  if (!oracle_engine.ok() || !bfs_engine.ok()) {
    std::fprintf(stderr, "engine startup failed\n");
    return 1;
  }
  if (!(*oracle_engine)->distance_oracle_active() ||
      (*bfs_engine)->distance_oracle_active()) {
    std::fprintf(stderr, "FAIL: oracle/fallback engine setup inverted\n");
    return 1;
  }
  if (!(*oracle_engine)->warm_index_from_cache()) {
    std::printf("  note: sidecar not restored; the oracle engine rebuilt "
                "its labels\n");
  }

  util::Rng rng(args.seed ^ 0xD157);
  std::vector<graph::NodeId> srcs(num_pairs), dsts(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    srcs[i] = static_cast<graph::NodeId>(rng.UniformU64(g.num_nodes()));
    dsts[i] = static_cast<graph::NodeId>(rng.UniformU64(g.num_nodes()));
  }

  // Byte-identity: oracle answers vs undeadlined BFS answers, pair by
  // pair. (Undeadlined so the fallback always completes; a completed dist
  // response carries no traversal artifacts, so the bytes must match.)
  size_t mismatches = 0;
  for (size_t i = 0; i < num_pairs; ++i) {
    const serve::QueryResponse a =
        (*oracle_engine)->Execute(bench::DistRequest(srcs[i], dsts[i], 0));
    const serve::QueryResponse b =
        (*bfs_engine)->Execute(bench::DistRequest(srcs[i], dsts[i], 0));
    if (a.json != b.json) {
      if (++mismatches <= 3) {
        std::fprintf(stderr, "MISMATCH pair (%u, %u):\n  oracle: %s\n  "
                     "bfs:    %s\n", srcs[i], dsts[i], a.json.c_str(),
                     b.json.c_str());
      }
    }
  }
  const bool byte_identical = mismatches == 0;
  if (!byte_identical) {
    std::fprintf(stderr,
                 "FAIL: %zu of %zu oracle responses differ from the BFS "
                 "fallback\n",
                 mismatches, num_pairs);
  }

  // Latency sweeps at the default deadline. The oracle must never
  // degrade; the fallback's degraded count is the contrast figure.
  bench::LatencySketch oracle_sketch, bfs_sketch, topk_sketch;
  uint64_t oracle_degraded = 0, bfs_degraded = 0;
  for (size_t i = 0; i < num_pairs; ++i) {
    const serve::Request r = bench::DistRequest(srcs[i], dsts[i], deadline_us);
    util::SpanTimer t1;
    const serve::QueryResponse a = (*oracle_engine)->Execute(r);
    oracle_sketch.AddSeconds(t1.Seconds());
    if (a.degraded) ++oracle_degraded;
    util::SpanTimer t2;
    const serve::QueryResponse b = (*bfs_engine)->Execute(r);
    bfs_sketch.AddSeconds(t2.Seconds());
    if (b.degraded) ++bfs_degraded;
  }
  const uint32_t ks[] = {10, 20, 50, 100};
  for (size_t i = 0; i < num_pairs; ++i) {
    serve::Request r;
    r.type = serve::RequestType::kTopKRank;
    r.k = ks[i % 4];
    util::SpanTimer t;
    (*oracle_engine)->Execute(r);
    topk_sketch.AddSeconds(t.Seconds());
  }

  const bench::LatencySummary oracle_lat = bench::Summarize(oracle_sketch);
  const bench::LatencySummary bfs_lat = bench::Summarize(bfs_sketch);
  const bench::LatencySummary topk_lat = bench::Summarize(topk_sketch);
  const double p99_ratio =
      topk_lat.p99 > 0.0 ? oracle_lat.p99 / topk_lat.p99 : 0.0;
  const bool zero_degraded = oracle_degraded == 0;
  const bool ratio_ok = p99_ratio <= max_ratio;

  std::printf("  dist via oracle: p50 %.1fus p99 %.1fus (degraded %llu)\n",
              oracle_lat.p50, oracle_lat.p99,
              static_cast<unsigned long long>(oracle_degraded));
  std::printf("  dist via BFS:    p50 %.1fus p99 %.1fus (degraded %llu)\n",
              bfs_lat.p50, bfs_lat.p99,
              static_cast<unsigned long long>(bfs_degraded));
  std::printf("  topk (no cache): p50 %.1fus p99 %.1fus\n", topk_lat.p50,
              topk_lat.p99);
  std::printf("  p99(dist)/p99(topk) = %.2f (target <= %.1f)\n", p99_ratio,
              max_ratio);
  if (!zero_degraded) {
    std::fprintf(stderr, "FAIL: %llu degraded oracle responses at the "
                 "%lluus deadline (target: zero)\n",
                 static_cast<unsigned long long>(oracle_degraded),
                 static_cast<unsigned long long>(deadline_us));
  }
  if (!ratio_ok) {
    std::fprintf(stderr, "FAIL: p99(dist) is %.2fx p99(topk), above the "
                 "%.1fx target\n", p99_ratio, max_ratio);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"scale\": %u,\n", args.num_users);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(args.seed));
  std::fprintf(f, "  \"num_edges\": %llu,\n",
               static_cast<unsigned long long>(g.num_edges()));
  std::fprintf(f, "  \"pairs\": %zu,\n", num_pairs);
  std::fprintf(f, "  \"deadline_us\": %llu,\n",
               static_cast<unsigned long long>(deadline_us));
  bench::WriteEnvironmentJson(f);
  std::fprintf(f, "  \"build_seconds\": %.4f,\n", build_seconds);
  std::fprintf(f,
               "  \"labels\": {\"avg_out_entries\": %.2f, "
               "\"avg_in_entries\": %.2f, \"max_out_entries\": %u, "
               "\"max_in_entries\": %u, \"bytes\": %llu},\n",
               stats.avg_out_entries, stats.avg_in_entries,
               stats.max_out_entries, stats.max_in_entries,
               static_cast<unsigned long long>(stats.bytes));
  std::fprintf(f,
               "  \"dist_oracle_us\": {\"count\": %llu, \"p50\": %.2f, "
               "\"p95\": %.2f, \"p99\": %.2f, \"degraded\": %llu},\n",
               oracle_lat.count, oracle_lat.p50, oracle_lat.p95,
               oracle_lat.p99,
               static_cast<unsigned long long>(oracle_degraded));
  std::fprintf(f,
               "  \"dist_bfs_us\": {\"count\": %llu, \"p50\": %.2f, "
               "\"p95\": %.2f, \"p99\": %.2f, \"degraded\": %llu},\n",
               bfs_lat.count, bfs_lat.p50, bfs_lat.p95, bfs_lat.p99,
               static_cast<unsigned long long>(bfs_degraded));
  std::fprintf(f,
               "  \"topk_us\": {\"count\": %llu, \"p50\": %.2f, "
               "\"p95\": %.2f, \"p99\": %.2f},\n",
               topk_lat.count, topk_lat.p50, topk_lat.p95, topk_lat.p99);
  std::fprintf(f, "  \"p99_ratio_vs_topk\": %.3f,\n", p99_ratio);
  std::fprintf(f, "  \"max_ratio\": %.2f,\n", max_ratio);
  std::fprintf(f,
               "  \"checks\": {\"byte_identical\": %s, "
               "\"zero_degraded\": %s, \"ratio_ok\": %s}\n",
               byte_identical ? "true" : "false",
               zero_degraded ? "true" : "false",
               ratio_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  return (byte_identical && zero_degraded && ratio_ok) ? 0 : 1;
}
