// Full paper reproduction in one binary: generates the synthetic
// verified-user dataset at the requested scale and runs every analysis
// of Sections IV and V with bench-grade settings, printing the complete
// paper-vs-measured report.
//
//   ./build/examples/verified_study [--scale=N|full] [--seed=S]
//                                   [--save=DIR] [--trace=FILE]
//                                   [--metrics=FILE] [--progress]
//
// At --scale=full (231,246 users, ~79M edges) expect several GB of RAM
// and tens of minutes; the default 40,000-user run finishes in under two
// minutes on a laptop. --save writes the generated dataset (graph, user
// records, bios, activity) to a directory in the library's published
// format (core/dataset.h).
//
// Observability: --trace=run.json writes a Chrome trace-event file (open
// in chrome://tracing or ui.perfetto.dev), --metrics=run_metrics.json
// dumps the counter/gauge/sketch snapshot, and --progress streams stage
// names as the pipeline advances. ELITENET_TRACE / ELITENET_METRICS do
// the same process-wide without flags.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/dataset.h"
#include "core/study.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace elitenet;

  uint32_t num_users = 40000;
  uint64_t seed = 2018;
  std::string save_dir;
  std::string trace_path;
  std::string metrics_path;
  bool progress = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      const char* v = argv[i] + 8;
      num_users = std::strcmp(v, "full") == 0
                      ? 231246u
                      : static_cast<uint32_t>(std::atoi(v));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--save=", 7) == 0) {
      save_dir = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress = true;
    }
  }

  core::StudyConfig config;
  config.network.num_users = num_users;
  config.network.seed = seed;
  config.bootstrap_replicates = 30;
  config.distance_sources = 64;
  config.betweenness_pivots = 256;
  config.clustering_samples = 12000;
  config.eigenvalue_k = 250;
  config.trace_path = trace_path;
  config.metrics_path = metrics_path;
  if (progress) {
    config.progress = [](const std::string& stage) {
      std::printf("  [stage] %s\n", stage.c_str());
      std::fflush(stdout);
    };
  }

  core::VerifiedStudy study(config);
  util::SpanTimer total;

  std::printf("generating synthetic verified-user dataset (n=%u, seed "
              "%llu)...\n",
              num_users, static_cast<unsigned long long>(seed));
  util::SpanTimer phase;
  if (const Status s = study.Generate(); !s.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  %u users, %llu follow edges, %zu bios, %zu-day activity "
              "series  [%.1fs]\n",
              study.network().graph.num_nodes(),
              static_cast<unsigned long long>(
                  study.network().graph.num_edges()),
              study.bios().bios.size(),
              study.activity().daily_tweets.size(), phase.Seconds());

  phase.Reset();
  std::printf("running the full Section IV + V analysis battery...\n");
  const Result<core::StudyReport> report = study.RunAll();
  if (!report.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("  done in %.1fs\n\n", phase.Seconds());

  std::fputs(core::RenderReport(*report, num_users).c_str(), stdout);

  if (!save_dir.empty()) {
    core::StudyDataset dataset;
    dataset.network = study.network();
    dataset.profiles = study.profiles();
    dataset.bios = study.bios();
    dataset.activity = study.activity();
    if (const Status s = core::SaveDataset(dataset, save_dir); s.ok()) {
      std::printf("\nsaved dataset to %s\n", save_dir.c_str());
    } else {
      std::fprintf(stderr, "\ndataset save failed: %s\n",
                   s.ToString().c_str());
    }
  }
  std::printf("\ntotal wall clock: %.1fs\n", total.Seconds());
  return 0;
}
