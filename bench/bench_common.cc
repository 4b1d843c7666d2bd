#include "bench_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/rss.h"
#include "util/table.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {

namespace {
// RSS at ParseArgs time — the "before any work" baseline that
// resident_delta_bytes is measured against.
uint64_t g_baseline_rss = 0;
}  // namespace

BenchArgs ParseArgs(int argc, char** argv) {
  if (g_baseline_rss == 0) g_baseline_rss = util::CurrentRssBytes();
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      const char* value = arg + 8;
      if (std::strcmp(value, "full") == 0) {
        args.num_users = 231246;
      } else {
        args.num_users = static_cast<uint32_t>(std::atoi(value));
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      args.out_dir = arg + 6;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      args.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      args.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      args.metrics_path = arg + 10;
    }
  }
  return args;
}

core::StudyConfig MakeStudyConfig(const BenchArgs& args) {
  core::StudyConfig cfg;
  cfg.network.num_users = args.num_users;
  cfg.network.seed = args.seed;
  cfg.bootstrap_replicates = 30;
  cfg.distance_sources = 64;
  cfg.betweenness_pivots = 256;
  cfg.clustering_samples = 12000;
  cfg.eigenvalue_k = 250;
  cfg.threads = args.threads;
  cfg.trace_path = args.trace_path;
  cfg.metrics_path = args.metrics_path;
  return cfg;
}

core::VerifiedStudy MakeStudy(const BenchArgs& args) {
  core::VerifiedStudy study(MakeStudyConfig(args));
  if (args.threads > 0) util::SetThreadCount(args.threads);
  util::SpanTimer sw("bench.generate");
  const Status s = study.Generate();
  if (!s.ok()) {
    std::fprintf(stderr, "study generation failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  std::printf(
      "generated n=%s users, m=%s edges in %.1fs (seed %llu, %d threads)\n",
      util::FormatWithCommas(study.network().graph.num_nodes()).c_str(),
      util::FormatWithCommas(study.network().graph.num_edges()).c_str(),
      sw.Seconds(), static_cast<unsigned long long>(args.seed),
      util::ThreadCount());
  return study;
}

std::string CsvPath(const BenchArgs& args, const std::string& name) {
  ::mkdir(args.out_dir.c_str(), 0755);  // best-effort; Open reports errors
  return args.out_dir + "/" + name;
}

void WriteEnvironmentJson(std::FILE* f) {
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n  \"threads\": %d,\n",
               std::thread::hardware_concurrency(), util::ThreadCount());
  const uint64_t current = util::CurrentRssBytes();
  const uint64_t delta =
      current > g_baseline_rss ? current - g_baseline_rss : 0;
  std::fprintf(f,
               "  \"peak_rss_bytes\": %llu,\n"
               "  \"resident_delta_bytes\": %llu,\n",
               static_cast<unsigned long long>(util::PeakRssBytes()),
               static_cast<unsigned long long>(delta));
}

uint64_t PeakRssBytes() { return util::PeakRssBytes(); }

void LatencySketch::AddSeconds(double seconds) {
  const double ns = std::max(0.0, seconds) * 1e9;
  ns_->Observe(static_cast<uint64_t>(std::llround(ns)));
}

uint64_t FnvMix(uint64_t h, uint64_t x) {
  h ^= x;
  return h * 0x100000001b3ULL;
}

uint64_t FnvString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Draws ranks with P(r) ~ 1/(r+1)^s over [0, n) by inverse CDF on the
// precomputed cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cumulative_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cumulative_[r] = total;
    }
  }

  size_t Sample(util::Rng* rng) const {
    const double u = rng->UniformDouble() * cumulative_.back();
    return static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

}  // namespace

std::vector<serve::Request> MakeServeRequestMix(const graph::DiGraph& g,
                                                size_t count, double zipf_s,
                                                uint64_t seed) {
  // Hot set = nodes by descending total degree: zipf rank 0 is the
  // biggest hub, exactly where real per-user traffic lands.
  std::vector<graph::NodeId> by_degree(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) by_degree[u] = u;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     const uint64_t da = g.OutDegree(a) + g.InDegree(a);
                     const uint64_t db = g.OutDegree(b) + g.InDegree(b);
                     if (da != db) return da > db;
                     return a < b;
                   });
  ZipfSampler zipf(by_degree.size(), zipf_s);
  util::Rng rng(seed);
  const uint32_t ks[] = {10, 20, 50, 100};
  const uint32_t limits[] = {16, 32, 64};

  std::vector<serve::Request> mix;
  mix.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::Request r;
    const double t = rng.UniformDouble();
    if (t < 0.35) {
      r.type = serve::RequestType::kEgoSummary;
      r.node = by_degree[zipf.Sample(&rng)];
    } else if (t < 0.60) {
      r.type = serve::RequestType::kNeighbors;
      r.node = by_degree[zipf.Sample(&rng)];
      r.direction = rng.Bernoulli(0.5) ? serve::NeighborDirection::kOut
                                       : serve::NeighborDirection::kIn;
      r.limit = limits[rng.UniformU64(3)];
    } else if (t < 0.80) {
      r.type = serve::RequestType::kTopKRank;
      r.k = ks[rng.UniformU64(4)];
    } else if (t < 0.95) {
      r.type = serve::RequestType::kDistance;
      r.node = by_degree[zipf.Sample(&rng)];
      r.target = by_degree[zipf.Sample(&rng)];
    } else {
      r.type = serve::RequestType::kFingerprint;
    }
    mix.push_back(r);
  }
  return mix;
}

double RelDev(double measured, double paper) {
  if (paper == 0.0) return std::fabs(measured);
  return std::fabs(measured - paper) / std::fabs(paper);
}

bool Compare(const std::string& metric, double paper, double measured,
             double rel_tolerance) {
  const bool ok = RelDev(measured, paper) <= rel_tolerance;
  util::PrintComparison(metric, util::FormatNumber(paper, 5),
                        util::FormatNumber(measured, 5), ok);
  return ok;
}

}  // namespace bench
}  // namespace elitenet
