// Shared plumbing for the figure/table reproduction benches: scale
// parsing, study construction, CSV output location, and the
// paper-vs-measured comparison printer.

#ifndef ELITENET_BENCH_BENCH_COMMON_H_
#define ELITENET_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/study.h"
#include "graph/digraph.h"
#include "serve/request.h"
#include "util/metrics.h"

namespace elitenet {
namespace bench {

struct BenchArgs {
  /// Number of users to generate. Default 40,000; `--scale=full` selects
  /// the paper's 231,246, `--scale=<n>` any custom size.
  uint32_t num_users = 40000;
  uint64_t seed = 2018;
  /// Where CSV artifacts are written (`--out=DIR`), default
  /// "bench_out".
  std::string out_dir = "bench_out";
  /// Worker threads for the parallel kernels (`--threads=N`). 0 = auto
  /// (ELITENET_THREADS env, else hardware_concurrency). Results are
  /// bit-identical for any value.
  int threads = 0;
  /// Chrome trace-event output (`--trace=FILE`); empty = tracing off.
  std::string trace_path;
  /// Metrics snapshot output (`--metrics=FILE`); empty = metrics off.
  std::string metrics_path;
};

/// Parses --scale= / --seed= / --out= / --threads= / --trace= / --metrics=
/// flags; ignores unknown flags so binaries stay runnable under generic
/// runners.
BenchArgs ParseArgs(int argc, char** argv);

/// Study configuration at the requested scale with bench-grade analysis
/// settings (deeper than quickstart, still minutes not hours).
core::StudyConfig MakeStudyConfig(const BenchArgs& args);

/// Generates the study, printing timing. Aborts the process with a
/// message on failure (benches have no meaningful recovery path).
core::VerifiedStudy MakeStudy(const BenchArgs& args);

/// Ensures the output directory exists; returns out_dir + "/" + name.
std::string CsvPath(const BenchArgs& args, const std::string& name);

/// Writes the execution-environment fields every BENCH_*.json carries —
/// hardware_concurrency, effective threads, peak_rss_bytes (process
/// high-water mark at write time) and resident_delta_bytes (RSS growth
/// since ParseArgs) — so a result read in isolation says what
/// parallelism *and* memory footprint produced it (a 1x speedup on a
/// single-core container is expected, not a regression; a bench whose
/// residency doubles is one even when its latency holds). Call inside an
/// open JSON object, two-space indent, comma included.
void WriteEnvironmentJson(std::FILE* f);

/// Process peak RSS (VmHWM) in bytes; 0 where unmeasurable. Thin wrapper
/// over util::PeakRssBytes so benches get the number without a util/rss.h
/// include.
uint64_t PeakRssBytes();

/// One FNV-1a step folding `x` into hash state `h` — the order-sensitive
/// combiner the serving benches use for response checksums.
uint64_t FnvMix(uint64_t h, uint64_t x);

/// FNV-1a over a byte string.
uint64_t FnvString(const std::string& s);

/// Deterministic zipf-skewed serving workload: per-user lookups (ego,
/// neighbors) concentrated on the highest-degree hubs, rarer whole-graph
/// queries (topk, dist, fingerprint) — verification-style traffic. The
/// same (graph, count, zipf_s, seed) always yields the same mix, which
/// is what makes replay checksums comparable across engines and
/// telemetry settings.
std::vector<serve::Request> MakeServeRequestMix(const graph::DiGraph& g,
                                                size_t count, double zipf_s,
                                                uint64_t seed);

/// A bench latency distribution read through util::QuantileSketch, the
/// estimator the server's #stats and Prometheus output use, so a bench
/// p99 and a live p99 are the same number. Samples are kept in
/// nanoseconds, so sub-microsecond latencies keep their resolution;
/// quantiles come back in microseconds. Movable (the sketch is heap-held)
/// so result structs holding one can be returned by value.
class LatencySketch {
 public:
  void AddSeconds(double seconds);
  uint64_t count() const { return ns_->count(); }
  /// Latency at quantile q in [0, 1], in microseconds; 0 when empty.
  double QuantileUs(double q) const { return ns_->Quantile(q) / 1e3; }

 private:
  std::unique_ptr<util::QuantileSketch> ns_ =
      std::make_unique<util::QuantileSketch>();
};

/// Relative deviation |measured - paper| / |paper|.
double RelDev(double measured, double paper);

/// Prints one comparison row and returns whether the shape band holds.
bool Compare(const std::string& metric, double paper, double measured,
             double rel_tolerance);

}  // namespace bench
}  // namespace elitenet

#endif  // ELITENET_BENCH_BENCH_COMMON_H_
