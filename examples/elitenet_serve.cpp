// elitenet_serve — the serving layer as a standalone front-end: load a
// graph once, build warm indexes, then answer newline-delimited requests
// on stdin with one JSON object per line on stdout until EOF or "quit".
//
//   elitenet_serve <graph|dataset-dir> [--threads=N] [--cache=N]
//                  [--shards=N] [--shard-threads=N] [--hubs=K]
//                  [--no-widx] [--metrics=<path>] [--metrics-interval=<ms>]
//                  [--flight-recorder=<K>] [--slow-ms=<t>] [--sample=<N>]
//                  [--no-telemetry]
//
// --shards=N (1..255) serves through the scatter-gather router
// (serve/router.h): the graph is split into N degree-partitioned shard
// backends, with the partition cached in a `<graph>.pidx` sidecar.
// Numeric flags are range-checked; a malformed or out-of-range value
// exits with status 2 instead of falling back to a default.
// Response bytes are identical to the unsharded engine's at every shard
// count — sharding is an availability/throughput knob, not a semantic
// one.
//
// Telemetry: every request gets a deterministic trace id; the last K
// requests live in an in-memory flight recorder introspectable over the
// same line protocol (#stats, #healthz, #recent [n], #slow [n],
// #trace <id>). --metrics=<path> starts a background exporter writing
// JSON (and <path>.prom Prometheus text) snapshots every interval.
// Env fallbacks (flags win): ELITENET_METRICS,
// ELITENET_METRICS_INTERVAL_MS, ELITENET_FLIGHT_RECORDER,
// ELITENET_SLOW_MS.
//
// Warm indexes persist to a `<graph>.widx` sidecar keyed by the graph's
// checksum: the first start builds and writes it, subsequent starts
// restore it and skip the PageRank/components/fingerprint recompute
// entirely. `--no-widx` disables the sidecar (always build fresh, write
// nothing).
//
//   $ elitenet_serve follows.eng <<'EOF'
//   ego 42
//   topk 5
//   dist 3 1007 2000
//   EOF
//
// Responses are pure functions of the graph and the request (no
// timestamps, no cache/thread artifacts), so piping the same request file
// through twice diffs clean. Diagnostics go to stderr only.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/dataset.h"
#include "serve/partition.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/warm_index_cache.h"

int main(int argc, char** argv) {
  using namespace elitenet;
  if (argc < 2) {
    std::fputs(
        "usage: elitenet_serve <graph|dataset-dir> [--threads=N] "
        "[--cache=N] [--no-widx]\n",
        stderr);
    return 2;
  }
  serve::EngineOptions opts;
  serve::ApplyServeEnv(&opts);  // env first; explicit flags override
  bool use_widx = true;
  serve::RouterOptions ropts;
  uint64_t threads = static_cast<uint64_t>(opts.threads);
  uint64_t cache = opts.cache_capacity;
  uint64_t shards = 0;  // 0 = unsharded QueryEngine
  uint64_t shard_threads = static_cast<uint64_t>(ropts.shard_threads);
  uint64_t hubs = ropts.hub_count;
  // Numeric flags: prefix, accepted range, destination.
  const struct {
    std::string_view prefix;
    uint64_t lo, hi;
    uint64_t* out;
  } kUintFlags[] = {
      {"--threads=", 1, 1024, &threads},
      {"--cache=", 0, uint64_t{1} << 30, &cache},
      {"--shards=", 1, 255, &shards},
      {"--shard-threads=", 1, 1024, &shard_threads},
      {"--hubs=", 0, UINT32_MAX, &hubs},
  };
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool matched = false;
    for (const auto& f : kUintFlags) {
      if (arg.substr(0, f.prefix.size()) != f.prefix) continue;
      matched = true;
      if (!serve::ParseBoundedUint(arg.substr(f.prefix.size()), f.lo, f.hi,
                                   f.out)) {
        std::fprintf(stderr, "bad value for %s (expected %llu..%llu)\n",
                     argv[i], static_cast<unsigned long long>(f.lo),
                     static_cast<unsigned long long>(f.hi));
        return 2;
      }
      break;
    }
    if (matched) continue;
    if (arg == "--no-widx") {
      use_widx = false;
    } else if (!serve::ParseServeFlag(arg, &opts)) {
      std::fprintf(stderr, "unknown flag or bad value: %s\n", argv[i]);
      return 2;
    }
  }
  opts.threads = static_cast<int>(threads);
  opts.cache_capacity = static_cast<size_t>(cache);
  if (use_widx) opts.warm_index_path = serve::WarmIndexPathFor(argv[1]);

  core::GraphLoadInfo load_info;
  auto g = core::LoadAnyGraph(argv[1], &load_info);
  if (!g.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", argv[1],
                 g.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "loaded %u nodes, %llu edges (%s, %.3fs); warming "
               "indexes...\n",
               g->num_nodes(),
               static_cast<unsigned long long>(g->num_edges()),
               load_info.format.c_str(), load_info.seconds);

  std::unique_ptr<serve::FrontDoor> door;
  if (shards > 0) {
    ropts.num_shards = static_cast<int>(shards);
    ropts.shard_threads = static_cast<int>(shard_threads);
    ropts.hub_count = static_cast<uint32_t>(hubs);
    ropts.engine = opts;
    if (use_widx) ropts.partition_path = serve::PartitionPathFor(argv[1]);
    auto router = serve::ShardedRouter::Create(std::move(*g), ropts);
    if (!router.ok()) {
      std::fprintf(stderr, "router startup failed: %s\n",
                   router.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "ready in %.2fs (%s, %s, %d shards x %d threads, %d router "
                 "workers, %llu hub replicas)\n",
                 (*router)->warmup_seconds(),
                 (*router)->warm_index_from_cache() ? "warm indexes restored"
                                                    : "warm indexes built",
                 (*router)->partition_from_cache() ? "partition restored"
                                                   : "partition built",
                 (*router)->num_shards(), ropts.shard_threads,
                 (*router)->threads(),
                 static_cast<unsigned long long>(
                     (*router)->partition().hubs.size()));
    door = std::move(*router);
  } else {
    auto engine = serve::QueryEngine::Create(std::move(*g), opts);
    if (!engine.ok()) {
      std::fprintf(stderr, "engine startup failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "ready in %.2fs (%s, %d workers)\n",
                 (*engine)->warmup_seconds(),
                 (*engine)->warm_index_from_cache() ? "warm indexes restored"
                                                    : "warm indexes built",
                 (*engine)->threads());
    door = std::move(*engine);
  }

  const serve::ServeStats stats = serve::ServeLines(door.get(), stdin, stdout);
  std::fprintf(stderr,
               "served %llu requests (%llu errors, %llu degraded, "
               "%llu admin), cache %llu hits / %llu misses\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.degraded),
               static_cast<unsigned long long>(stats.admin),
               static_cast<unsigned long long>(door->cache_hits()),
               static_cast<unsigned long long>(door->cache_misses()));
  std::fputs(serve::RenderSummaryText(door->telemetry()).c_str(), stderr);
  return 0;
}
