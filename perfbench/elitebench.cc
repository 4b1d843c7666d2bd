// elitebench — the benchmark program behind perfbench/run.py.
//
// One process runs one workload from a seed, times the library's public
// entry points from outside, checks the bytes it timed, and prints one
// JSON result line last. See perfbench/README.md for the workloads, the
// metric definitions and the layer-to-metric map.
//
//   elitebench --workload=<study|serve_zipf|serve_sharded|serve_live>
//              --seed=<n> --seconds=<n> --trace=<0|1> --workdir=<dir>
//              [--users=<n>] [--rev=<text>] [--corrupt-response]
//
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones.
// Exit codes: 0 = every check passed, 1 = a check or the run failed (the
// result line then says "correct": false), 2 = bad command line.

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/study.h"
#include "gen/churn.h"
#include "gen/verified_network.h"
#include "graph/hub_labels.h"
#include "graph/io.h"
#include "serve/engine.h"
#include "serve/partition.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/warm_index_cache.h"
#include "util/parallel.h"
#include "util/rss.h"
#include "util/trace.h"

namespace elitenet {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed workload parameters. The graph is the dataset and stays the same
// for every seed; the seed drives what is replayed against it (request
// mix, churn trace, analysis sampling).

constexpr uint64_t kGraphSeed = 2018;
constexpr uint32_t kStudyUsers = 10000;
constexpr uint32_t kServeUsers = 8000;
constexpr double kZipf = 1.1;
constexpr int kSetupReps = 3;         // serve set-ups per run (median)
constexpr int kStudySetupReps = 15;   // study Generate calls per run
constexpr int kServeRounds = 16;      // serve restart + replay rounds
constexpr int kRestartsPerRound = 3;  // timed restarts per round, after
                                      // one untimed
constexpr size_t kMixSize = 400000;   // distinct mix positions replayed
constexpr size_t kWarmupPrefix = 2000;  // untimed requests per phase
constexpr size_t kMinTimed = 2000;    // timed requests per phase, at least
constexpr size_t kChecksumPrefix = 20000;  // requests in the checksum
constexpr double kSliceSeconds = 0.5;  // stream figures are per slice
// The live writer applies one mutation per kReadsPerMutation reads the
// client has completed, so versions per read do not depend on speed;
// CompactNow runs every kMutationsPerRound mutations. Neither value comes
// from a measured read:write ratio or compaction policy (the repository
// has none for this network); they are set so that kMinCompactions
// compactions fit in a 12 s window at the default scale. README.md says
// what they decide.
constexpr uint64_t kReadsPerMutation = 4;
constexpr uint64_t kMutationsPerRound = 6000;
constexpr uint64_t kPinEvery = 500;  // writer pin capture while compacting
constexpr int kMinCompactions = 3;
constexpr uint64_t kMaxRounds = 64;  // churn trace length, in rounds
constexpr int kMinStudyPasses = 3;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Exact order statistics over raw samples (no bucketing, so repeated runs
/// never read back the same rounded value).
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return v_.size(); }
  double Sum() const {
    double s = 0.0;
    for (double x : v_) s += x;
    return s;
  }
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }
  double Max() {
    Sort();
    return v_.empty() ? 0.0 : v_.back();
  }
  /// Nearest-rank percentile, q in [0, 1].
  double Quantile(double q) {
    if (v_.empty()) return 0.0;
    Sort();
    size_t rank = static_cast<size_t>(std::ceil(q * v_.size()));
    rank = std::clamp<size_t>(rank, 1, v_.size());
    return v_[rank - 1];
  }
  double Median() { return Quantile(0.5); }

 private:
  void Sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// The tail percentile a latency stream reports: p99 needs 1000 samples
/// for ten of them to lie beyond it; below that the slowest sample is
/// reported and labelled as such.
struct Tail {
  double value = 0.0;
  std::string label;
};

Tail TailOf(Samples* s) {
  if (s->size() >= 1000) return {s->Quantile(0.99), "p99"};
  return {s->Max(), "max"};
}

// ---------------------------------------------------------------------------
// Result collection.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples, const std::string& note = "") {
    metrics_.push_back({name, value, unit, samples, note});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void Require(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
  uint32_t users = 0;  // 0 = the workload's default scale
  std::string rev = "unknown";
  bool corrupt_response = false;
};

/// Everything a workload hands back: end-to-end metrics, per-layer
/// metrics, and facts for the summary line.
struct RunResult {
  Report e2e;
  Report layers;
  Outcome outcome;
  std::map<std::string, std::string> facts;
  int threads = 0;
};

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string MakeDir(const std::string& root, const std::string& name) {
  const std::string path = root + "/" + name;
  ::mkdir(path.c_str(), 0755);
  return path;
}

bool IsErrorResponse(std::string_view json) {
  return json.find("\"type\":\"error\"") != std::string_view::npos;
}

/// Removes the `"as_of":<n>` field — the epoch's base version, which a
/// compaction advances by contract — so pinned reads can be compared
/// across a compaction byte for byte otherwise.
std::string WithoutAsOf(std::string json) {
  const std::string key = ",\"as_of\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return json;
  size_t end = at + key.size();
  while (end < json.size() && json[end] >= '0' && json[end] <= '9') ++end;
  json.erase(at, end - at);
  return json;
}

// ---------------------------------------------------------------------------
// Line-protocol client: ServeLines runs on its own thread over two pipes,
// and one closed-loop client writes a request line and waits for its
// response line before sending the next. The client and the ServeLines
// thread share one CPU: a closed loop never runs both at once, and on a
// virtual machine a wake-up across CPUs costs a varying, often
// hundred-microsecond, host scheduling delay that is not the program's.
// The CPU is the one that runs a short calibration loop fastest, since
// the host's load differs from one virtual CPU to the next. On the static
// workloads every other thread of the process (engine workers, router and
// shard executors, which a routed topk hands its gather to) is moved onto
// that CPU too for the length of the loop, so no request of the loop
// waits on a wake-up across CPUs.

/// Pins the calling thread to the allowed CPU that runs a fixed loop
/// fastest (best of three rounds, CPUs interleaved).
void PinToFastestCpu() {
  cpu_set_t allowed;
  if (::pthread_getaffinity_np(::pthread_self(), sizeof(allowed),
                               &allowed) != 0) {
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> best(cpus.size(), 1e9);
  auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  };
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < cpus.size(); ++i) {
      pin(cpus[i]);
      const Clock::time_point t0 = Clock::now();
      volatile uint64_t x = 0;
      for (uint64_t k = 0; k < 200000; ++k) x = x * 31 + k;
      best[i] = std::min(best[i], MicrosSince(t0));
    }
  }
  pin(cpus[std::min_element(best.begin(), best.end()) - best.begin()]);
}

/// Moves every thread of the process onto the calling thread's CPU set;
/// returns each moved thread's previous set, for RestoreThreads.
std::vector<std::pair<pid_t, cpu_set_t>> PinProcessToCaller() {
  std::vector<std::pair<pid_t, cpu_set_t>> saved;
  cpu_set_t mine;
  if (::sched_getaffinity(0, sizeof(mine), &mine) != 0) return saved;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return saved;
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  while (const dirent* e = ::readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid <= 0 || tid == self) continue;
    cpu_set_t old;
    if (::sched_getaffinity(tid, sizeof(old), &old) == 0 &&
        ::sched_setaffinity(tid, sizeof(mine), &mine) == 0) {
      saved.emplace_back(tid, old);
    }
  }
  ::closedir(dir);
  return saved;
}

void RestoreThreads(const std::vector<std::pair<pid_t, cpu_set_t>>& saved) {
  for (const auto& [tid, set] : saved) {
    ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

class LinesClient {
 public:
  /// `pin_process` also moves every other thread of the process onto the
  /// client's CPU until the client is destroyed.
  template <typename Server>
  explicit LinesClient(Server* server, bool pin_process = false) {
    int to_server[2];
    int from_server[2];
    if (::pipe(to_server) != 0 || ::pipe(from_server) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    std::FILE* server_in = ::fdopen(to_server[0], "r");
    std::FILE* server_out = ::fdopen(from_server[1], "w");
    out_ = ::fdopen(to_server[1], "w");
    in_ = ::fdopen(from_server[0], "r");
    ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    PinToFastestCpu();  // the ServeLines thread inherits the pin
    if (pin_process) moved_ = PinProcessToCaller();
    thread_ = std::thread([server, server_in, server_out] {
      serve::ServeLines(server, server_in, server_out);
      std::fclose(server_in);
      std::fclose(server_out);
    });
  }

  ~LinesClient() {
    std::fclose(out_);  // EOF ends the server loop
    thread_.join();
    std::fclose(in_);
    std::free(buf_);
    RestoreThreads(moved_);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
  }

  LinesClient(const LinesClient&) = delete;
  LinesClient& operator=(const LinesClient&) = delete;

  /// Sends one request line; returns its response line (no newline).
  std::string RoundTrip(const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fputc('\n', out_);
    std::fflush(out_);
    const ssize_t n = ::getline(&buf_, &cap_, in_);
    if (n <= 0) return std::string();
    size_t len = static_cast<size_t>(n);
    if (buf_[len - 1] == '\n') --len;
    return std::string(buf_, len);
  }

 private:
  cpu_set_t saved_;  // the client thread's affinity before pinning
  std::vector<std::pair<pid_t, cpu_set_t>> moved_;  // other threads'
  std::FILE* out_ = nullptr;
  std::FILE* in_ = nullptr;
  char* buf_ = nullptr;
  size_t cap_ = 0;
  std::thread thread_;
};

/// The replayed traffic: the zipf mix and its wire lines.
struct Mix {
  std::vector<serve::Request> requests;
  std::vector<std::string> lines;

  const std::string& line(size_t i) const { return lines[i % lines.size()]; }
  const serve::Request& request(size_t i) const {
    return requests[i % requests.size()];
  }
};

Mix MakeMix(const graph::DiGraph& g, uint64_t seed) {
  Mix mix;
  mix.requests = bench::MakeServeRequestMix(g, kMixSize, kZipf, seed);
  mix.lines.reserve(mix.requests.size());
  for (const serve::Request& r : mix.requests) {
    mix.lines.push_back(serve::CanonicalEncoding(r));
  }
  return mix;
}

/// Per-position response hashes of the first pass over the mix; later
/// passes over a position are compared against it. Positions past the
/// mix's end wrap, as the replayed requests do.
struct ResponseLedger {
  std::vector<uint64_t> hash;
  std::vector<uint8_t> seen;
  uint64_t mismatches = 0;

  explicit ResponseLedger(size_t n) : hash(n, 0), seen(n, 0) {}
  bool Seen(size_t i) const { return seen[i % seen.size()] != 0; }
  uint64_t Hash(size_t i) const { return hash[i % hash.size()]; }
  void Record(size_t i, const std::string& json) {
    RecordHash(i, bench::FnvString(json));
  }
  void RecordHash(size_t i, uint64_t h) {
    i %= hash.size();
    if (seen[i]) {
      if (hash[i] != h) ++mismatches;
      return;
    }
    hash[i] = h;
    seen[i] = 1;
  }
  /// Order-sensitive checksum over the first `n` positions (all seen).
  std::optional<uint64_t> Checksum(size_t n) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < n; ++i) {
      if (!seen[i]) return std::nullopt;
      h = bench::FnvMix(h, hash[i]);
    }
    return h;
  }
};

/// One timed slice of an operation stream, reduced to its figures.
struct Slice {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  Tail tail;
  uint64_t samples = 0;
};

Slice MakeSlice(Samples* latency_us, double ops_per_s) {
  return {ops_per_s, latency_us->Median(), TailOf(latency_us),
          latency_us->size()};
}

/// Cuts a timed stream into kSliceSeconds slices and keeps only each
/// slice's figures, so the samples held (and the process's peak RSS) do
/// not grow with the window. The last, partial slice is kept only if it
/// is at least half a slice long or the only one.
class SliceRecorder {
 public:
  explicit SliceRecorder(std::vector<Slice>* out) : out_(out) {}
  ~SliceRecorder() {
    if (current_.size() > 0 &&
        (Elapsed() >= kSliceSeconds / 2 || out_->empty())) {
      Close();
    }
  }
  SliceRecorder(const SliceRecorder&) = delete;
  SliceRecorder& operator=(const SliceRecorder&) = delete;

  void Add(double us) {
    if (current_.size() == 0) start_ = Clock::now();
    current_.Add(us);
    if (Elapsed() >= kSliceSeconds) Close();
  }

 private:
  double Elapsed() const { return SecondsSince(start_); }
  void Close() {
    out_->push_back(MakeSlice(&current_, current_.size() / Elapsed()));
    current_ = Samples();
  }

  std::vector<Slice>* out_;
  Samples current_;
  Clock::time_point start_;
};

/// Results of one closed-loop ServeLines phase.
struct LinesPhase {
  double latency_sum_us = 0.0;
  size_t timed = 0;
  size_t errors = 0;
  double seconds = 0.0;
  uint64_t response_bytes = 0;
  size_t first_timed = 0;  ///< mix position of the first timed request
};

/// Untimed warm-up prefix, then timed round trips until `seconds` pass
/// (and at least kMinTimed and `min_positions` mix positions are done).
LinesPhase RunLines(LinesClient* client, const Mix& mix, double seconds,
                    size_t min_positions, ResponseLedger* ledger,
                    bool corrupt_first, Outcome* outcome,
                    std::vector<Slice>* slices,
                    const std::function<bool()>& keep_going = nullptr,
                    const std::function<void()>& on_timed = nullptr) {
  LinesPhase p;
  SliceRecorder recorder(slices);
  size_t i = 0;
  auto record = [&](size_t pos, std::string json) {
    if (corrupt_first && pos == 0 && !json.empty()) json[json.size() / 2] ^= 1;
    if (IsErrorResponse(json) || json.empty()) ++p.errors;
    if (ledger != nullptr) ledger->Record(pos, json);
    return json.size();
  };
  for (; i < kWarmupPrefix; ++i) record(i, client->RoundTrip(mix.line(i)));
  p.first_timed = i;
  const Clock::time_point start = Clock::now();
  for (;; ++i) {
    const size_t timed = i - p.first_timed;
    if (timed >= kMinTimed && i >= min_positions &&
        SecondsSince(start) >= seconds && (!keep_going || !keep_going())) {
      break;
    }
    const Clock::time_point t0 = Clock::now();
    std::string json = client->RoundTrip(mix.line(i));
    const double us = MicrosSince(t0);
    p.latency_sum_us += us;
    recorder.Add(us);
    p.response_bytes += record(i, std::move(json));
    if (on_timed) on_timed();
  }
  p.seconds = SecondsSince(start);
  p.timed = i - p.first_timed;
  outcome->attempted += i;
  outcome->failed += p.errors;
  return p;
}

/// Results of the Submit window phase.
struct SubmitPhase {
  size_t submitted = 0;
  size_t timed = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  double seconds = 0.0;
  /// Response hashes at positions ServeLines has not answered yet, for
  /// CheckSubmitTail.
  std::vector<std::pair<size_t, uint64_t>> unchecked;
};

/// Replays the mix through Submit with `window` requests outstanding,
/// reaped in submission order. Each response at a position ServeLines
/// has answered is compared with those bytes; the rest are kept in
/// `unchecked` for CheckSubmitTail.
template <typename Server>
SubmitPhase RunSubmit(Server* server, const Mix& mix, int window,
                      double seconds, const ResponseLedger& lines,
                      Outcome* outcome, std::vector<Slice>* slices) {
  SubmitPhase p;
  SliceRecorder recorder(slices);
  struct InFlight {
    size_t pos;
    Clock::time_point sent;
    std::future<serve::QueryResponse> future;
  };
  std::deque<InFlight> inflight;
  size_t next = 0;
  Clock::time_point start = Clock::now();
  bool timing = false;
  auto reap = [&] {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const serve::QueryResponse resp = f.future.get();
    const double us = MicrosSince(f.sent);
    if (!resp.ok || resp.degraded) ++p.failed;
    const uint64_t h = bench::FnvString(resp.json);
    if (!lines.Seen(f.pos)) {
      p.unchecked.emplace_back(f.pos, h);
    } else if (lines.Hash(f.pos) != h) {
      ++p.mismatches;
    }
    if (f.pos >= kWarmupPrefix) {
      recorder.Add(us);
      ++p.timed;
    }
  };
  for (;;) {
    if (!timing && next == kWarmupPrefix) {
      while (!inflight.empty()) reap();
      timing = true;
      start = Clock::now();
    }
    if (timing && p.timed + inflight.size() >= kMinTimed &&
        SecondsSince(start) >= seconds) {
      break;
    }
    while (static_cast<int>(inflight.size()) >= window) reap();
    inflight.push_back({next, Clock::now(), server->Submit(mix.request(next))});
    ++next;
  }
  while (!inflight.empty()) reap();
  p.seconds = SecondsSince(start);
  p.submitted = next;
  outcome->attempted += next;
  outcome->failed += p.failed;
  return p;
}

/// Answers the Submit positions ServeLines had not reached through
/// ServeLines, untimed, with the result cache cleared first so the bytes
/// are computed again rather than served from what Submit cached; then
/// requires every Submit response to have matched its ServeLines bytes.
template <typename Server>
void CheckSubmitTail(Server* server, const Mix& mix, const SubmitPhase& p,
                     ResponseLedger* lines, Outcome* outcome) {
  size_t mismatches = p.mismatches;
  if (!p.unchecked.empty()) {
    server->ClearResultCache();
    LinesClient client(server, /*pin_process=*/true);
    for (const auto& [pos, h] : p.unchecked) {
      if (!lines->Seen(pos)) {
        lines->Record(pos, client.RoundTrip(mix.line(pos)));
      }
      if (lines->Hash(pos) != h) ++mismatches;
    }
  }
  outcome->Require(mismatches == 0,
                   std::to_string(mismatches) + " of " +
                       std::to_string(p.submitted) +
                       " Submit responses differ from the ServeLines bytes");
}

// ---------------------------------------------------------------------------
// Common end-to-end figures.

/// The level three of four repetitions sustain: the 75th-percentile time
/// (or the 25th-percentile rate). This machine's speed drifts over seconds
/// with its host's load, and the sustained level is steadier from run to
/// run than the best repetition or the median one.
double Sustained(Samples* reps, bool higher_is_better = false) {
  return reps->Quantile(higher_is_better ? 0.25 : 0.75);
}

/// Stream figures from a run's slices, each the level the slices sustain.
void AddStreamMetrics(Report* e2e, std::vector<Slice>* slices,
                      const std::string& what) {
  Samples ops;
  Samples p50;
  Samples tail;
  std::string tail_label = "p99";
  uint64_t n = 0;
  for (const Slice& s : *slices) {
    ops.Add(s.ops_per_s);
    p50.Add(s.p50_us);
    tail.Add(s.tail.value);
    if (s.tail.label != "p99") tail_label = s.tail.label;
    n += s.samples;
  }
  const std::string over =
      slices->size() > 1
          ? ", sustained over " + std::to_string(slices->size()) + " slices"
          : "";
  e2e->Add("ops_per_s", Sustained(&ops, true), "1/s", n, what + over);
  e2e->Add("p50_us", Sustained(&p50), "us", n, what + ", median" + over);
  e2e->Add("tail_us", Sustained(&tail), "us", n,
           what + ", " + tail_label + over);
}

void AddPeakRss(Report* e2e) {
  e2e->Add("peak_rss_mb",
           static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0),
           "MiB", 1, "process VmHWM");
}

/// Per-layer names that exist on every workload; a layer the workload
/// does not run reports 0 (see README).
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
          {"gen.generate_s", "s"},
          {"core.basic_s", "s"},
          {"core.outdegree_fit_s", "s"},
          {"core.eigen_fit_s", "s"},
          {"core.distances_s", "s"},
          {"core.centrality_s", "s"},
          {"core.text_s", "s"},
          {"core.activity_s", "s"},
          {"analysis.degree_s", "s"},
          {"analysis.components_s", "s"},
          {"analysis.pagerank_s", "s"},
          {"graph.hub_labels_s", "s"},
          {"core.fingerprint_s", "s"},
          {"graph.hub_label_entries", "count"},
          {"graph.hub_label_bytes", "B"},
          {"graph.eng2_write_s", "s"},
          {"graph.eng2_load_s", "s"},
          {"serve.widx_save_s", "s"},
          {"serve.widx_load_s", "s"},
          {"serve.partition_s", "s"},
          {"serve.parse_us", "us"},
          {"serve.hit_us.ego", "us"},
          {"serve.hit_us.neighbors", "us"},
          {"serve.hit_us.topk", "us"},
          {"serve.hit_us.dist", "us"},
          {"serve.hit_us.fingerprint", "us"},
          {"serve.miss_us.ego", "us"},
          {"serve.miss_us.neighbors", "us"},
          {"serve.miss_us.topk", "us"},
          {"serve.miss_us.dist", "us"},
          {"serve.miss_us.fingerprint", "us"},
          {"serve.cache_hit_ratio", "ratio"},
          {"serve.cache_lookups", "count"},
          {"serve.response_bytes", "B"},
          {"serve.transport_us", "us"},
          {"serve.submit_rps", "1/s"},
          {"serve.submit_p99_us", "us"},
          {"serve.queue_wait_p50_us", "us"},
          {"serve.queue_wait_p99_us", "us"},
          {"serve.shed", "count"},
          {"serve.shard_balance", "ratio"},
          {"serve.apply_us", "us"},
          {"serve.apply_ops", "1/s"},
          {"serve.apply_p99_us", "us"},
          {"serve.overlay_rows", "count"},
          {"serve.overlay_entries", "count"},
          {"serve.wal_bytes_per_op", "B"},
          {"serve.compact_warm_s", "s"},
          {"trace.coverage", "ratio"},
          {"trace.overhead_frac", "ratio"},
  };
  return names;
}

// ---------------------------------------------------------------------------
// Traced timing. The per-layer figures are the spans the library opens
// around its own layers (ELITENET_SPAN), read with a util::SpanCapture on
// the thread that makes the real call: RunAll, the cold start, the
// restart, CompactNow. Calls the benchmark makes itself (generate, ENG2
// write and load) are timed around the call. A traced sequence runs
// kTraceReps times, interleaved with as many untraced runs of it, and
// each layer reports its median.

constexpr int kTraceReps = 3;
constexpr size_t kMaxSpans = size_t{1} << 16;

/// A library span and the per-layer metric it feeds. Spans feeding one
/// metric (one build_shard span per shard, the five warm spans of a
/// compaction) add up within a repetition.
struct SpanLayer {
  const char* span;
  const char* layer;
};

// RunAll's seven analyses, in its order.
constexpr SpanLayer kStudySpans[] = {
    {"study.basic", "core.basic_s"},
    {"study.outdegree_fit", "core.outdegree_fit_s"},
    {"study.eigenvalue_fit", "core.eigen_fit_s"},
    {"study.distances", "core.distances_s"},
    {"study.centrality_relations", "core.centrality_s"},
    {"study.text", "core.text_s"},
    {"study.activity", "core.activity_s"},
};

// ComputeWarmIndexes' steps, then the cold start's sidecar write and, on
// the router, the partition.
constexpr SpanLayer kSetupSpans[] = {
    {"serve.warm.degree", "analysis.degree_s"},
    {"serve.warm.components", "analysis.components_s"},
    {"serve.warm.pagerank", "analysis.pagerank_s"},
    {"serve.warm.dist_oracle", "graph.hub_labels_s"},
    {"serve.warm.fingerprint", "core.fingerprint_s"},
    {"serve.warm.widx_write", "serve.widx_save_s"},
    {"serve.router.partition", "serve.partition_s"},
    {"serve.router.build_shard", "serve.partition_s"},
};

constexpr SpanLayer kRestartSpans[] = {
    {"serve.warm.widx_load", "serve.widx_load_s"},
};

// The warm rebuild inside CompactNow.
constexpr SpanLayer kCompactSpans[] = {
    {"serve.warm.degree", "serve.compact_warm_s"},
    {"serve.warm.components", "serve.compact_warm_s"},
    {"serve.warm.pagerank", "serve.compact_warm_s"},
    {"serve.warm.dist_oracle", "serve.compact_warm_s"},
    {"serve.warm.fingerprint", "serve.compact_warm_s"},
};

/// Per-layer seconds, one sample per traced repetition.
class LayerSamples {
 public:
  void Add(const std::string& layer, double seconds) {
    auto it = samples_.find(layer);
    if (it == samples_.end()) {
      order_.push_back(layer);
      it = samples_.emplace(layer, Samples()).first;
    }
    it->second.Add(seconds);
  }

  /// Adds one repetition: the capture's spans named in `map`, summed per
  /// layer. Other spans are ignored.
  template <size_t N>
  void AddSpans(util::SpanCapture* capture, const SpanLayer (&map)[N],
                Outcome* outcome) {
    outcome->Require(!capture->truncated(), "span capture overflowed");
    std::map<std::string, double> rep;
    for (const util::CapturedSpan& s : capture->Take()) {
      for (const SpanLayer& m : map) {
        if (std::string_view(s.name) == m.span) {
          rep[m.layer] += static_cast<double>(s.duration_ns) * 1e-9;
        }
      }
    }
    for (const SpanLayer& m : map) {  // in the map's order
      auto it = rep.find(m.layer);
      if (it != rep.end()) {
        Add(it->first, it->second);
        rep.erase(it);
      }
    }
  }

  double MedianSum() {
    double sum = 0.0;
    for (const std::string& n : order_) sum += samples_[n].Median();
    return sum;
  }

  void Emit(Report* layers, const std::string& note) {
    for (const std::string& n : order_) {
      layers->Add(n, samples_[n].Median(), "s", samples_[n].size(), note);
    }
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Samples> samples_;
};

/// Coverage: the layer sum over the untraced end-to-end figure it
/// decomposes. Overhead: traced against untraced runs of the same
/// sequence, interleaved.
void AddCoverage(Report* layers, double layer_sum, double e2e,
                 Samples* traced, Samples* untraced,
                 const std::string& phase) {
  layers->Add("trace.coverage", e2e > 0 ? layer_sum / e2e : 0.0, "ratio", 1,
              "layer sum over untraced " + phase);
  const double base = untraced->Median();
  layers->Add("trace.overhead_frac",
              base > 0 ? (traced->Median() - base) / base : 0.0, "ratio",
              traced->size(), "(traced - untraced) / untraced " + phase);
}

void AddHubLabelCounts(const serve::WarmIndexes& warm, Report* layers) {
  const graph::HubLabelStats hs = warm.hub_labels.Stats();
  layers->Add("graph.hub_label_entries",
              static_cast<double>(hs.out_entries + hs.in_entries), "count", 1);
  layers->Add("graph.hub_label_bytes", static_cast<double>(hs.bytes), "B", 1);
}

/// The serve set-up sequence's artifacts: a generated graph written as
/// ENG2 in a fresh directory.
struct Snapshot {
  std::string eng2;
  std::string widx;
  uint64_t nodes = 0;
  uint64_t edges = 0;
};

Result<graph::DiGraph> GenerateServeGraph(uint32_t users) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = users;
  cfg.seed = kGraphSeed;
  EN_ASSIGN_OR_RETURN(gen::VerifiedNetwork net,
                      gen::GenerateVerifiedNetwork(cfg));
  return std::move(net.graph);
}

/// generate -> ENG2 write -> mmap load, in `dir`, each step timed into
/// `steps` (seconds, in that order). Returns the loaded graph.
Result<graph::DiGraph> WriteAndLoad(uint32_t users, const std::string& dir,
                                    Snapshot* snap, double steps[3]) {
  Clock::time_point t0 = Clock::now();
  EN_ASSIGN_OR_RETURN(graph::DiGraph g, GenerateServeGraph(users));
  steps[0] = SecondsSince(t0);
  snap->eng2 = dir + "/graph.eng2";
  snap->widx = serve::WarmIndexPathFor(snap->eng2);
  snap->nodes = g.num_nodes();
  snap->edges = g.num_edges();
  t0 = Clock::now();
  EN_RETURN_IF_ERROR(graph::SaveBinaryV2(g, snap->eng2));
  steps[1] = SecondsSince(t0);
  g = graph::DiGraph();
  t0 = Clock::now();
  auto loaded = graph::MapBinary(snap->eng2);
  steps[2] = SecondsSince(t0);
  return loaded;
}

/// Adds one traced set-up repetition: its own timed steps, then the
/// library spans of the cold start.
void AddSetupRep(const double steps[3], util::SpanCapture* capture,
                 LayerSamples* layers, Outcome* outcome) {
  layers->Add("gen.generate_s", steps[0]);
  layers->Add("graph.eng2_write_s", steps[1]);
  layers->Add("graph.eng2_load_s", steps[2]);
  layers->AddSpans(capture, kSetupSpans, outcome);
}

/// Splits Execute latency by request type and cache outcome, with
/// ParseRequest timed on the same lines: the traced twin of a ServeLines
/// phase, replayed after clearing the cache so hits and misses fall on
/// the same positions as in the timed phase.
template <typename Server>
void TraceRequestPath(Server* server, const Mix& mix, const LinesPhase& lines,
                      Report* layers, Outcome* outcome) {
  server->ClearResultCache();
  for (size_t i = 0; i < lines.first_timed; ++i) {
    (void)server->Execute(mix.request(i));
  }
  Samples parse_us;
  Samples exec_us;
  Samples hit[5];
  Samples miss[5];
  uint64_t hits = 0;
  for (size_t i = lines.first_timed; i < lines.first_timed + lines.timed;
       ++i) {
    Clock::time_point t0 = Clock::now();
    auto req = serve::ParseRequest(mix.line(i));
    const double p = MicrosSince(t0);
    if (!req.ok()) {
      outcome->Fail("mix line does not parse: " + mix.line(i));
      return;
    }
    t0 = Clock::now();
    const serve::QueryResponse resp = server->Execute(*req);
    const double e = MicrosSince(t0);
    parse_us.Add(p);
    exec_us.Add(e);
    const size_t type = static_cast<size_t>(req->type);
    (resp.cache_hit ? hit : miss)[type].Add(e);
    if (resp.cache_hit) ++hits;
  }
  static const char* kTypes[5] = {"ego", "topk", "dist", "neighbors",
                                  "fingerprint"};
  layers->Add("serve.parse_us", parse_us.Median(), "us", parse_us.size());
  for (size_t t = 0; t < 5; ++t) {
    layers->Add(std::string("serve.hit_us.") + kTypes[t], hit[t].Median(),
                "us", hit[t].size());
    layers->Add(std::string("serve.miss_us.") + kTypes[t], miss[t].Median(),
                "us", miss[t].size());
  }
  const uint64_t lookups = exec_us.size();
  layers->Add("serve.cache_hit_ratio",
              lookups ? static_cast<double>(hits) / lookups : 0.0, "ratio",
              lookups, std::to_string(hits) + " hits");
  layers->Add("serve.cache_lookups", static_cast<double>(lookups), "count",
              lookups);
  const double timed = static_cast<double>(std::max<size_t>(1, lines.timed));
  layers->Add("serve.response_bytes", lines.response_bytes / timed, "B",
              lines.timed, "mean per response");
  layers->Add("serve.transport_us",
              lines.latency_sum_us / timed - parse_us.Mean() - exec_us.Mean(),
              "us", lines.timed, "mean ServeLines - mean (parse + Execute)");
}

// ---------------------------------------------------------------------------
// study: VerifiedStudy::Generate + RunAll.

RunResult RunStudy(const Args& args) {
  RunResult out;
  Outcome& oc = out.outcome;
  const int threads = Nproc();
  out.threads = threads;
  util::SetThreadCount(threads);
  bench::BenchArgs bargs;
  bargs.num_users = args.users ? args.users : kStudyUsers;
  bargs.seed = kGraphSeed;
  bargs.threads = threads;
  core::StudyConfig cfg = bench::MakeStudyConfig(bargs);
  cfg.analysis_seed = args.seed;

  Samples setup_s;
  std::optional<core::VerifiedStudy> study;
  for (int rep = 0; rep < kStudySetupReps; ++rep) {
    study.emplace(cfg);
    const Clock::time_point t0 = Clock::now();
    const Status s = study->Generate();
    setup_s.Add(SecondsSince(t0));
    ++oc.attempted;
    if (!s.ok()) {
      ++oc.failed;
      oc.Fail("Generate: " + s.ToString());
      return out;
    }
  }
  const uint32_t n = study->network().graph.num_nodes();
  out.facts["users"] = std::to_string(n);
  out.facts["edges"] = std::to_string(study->network().graph.num_edges());

  // One untimed pass fills allocator and page caches; its report is the
  // reference every later pass must reproduce byte for byte.
  std::string reference;
  {
    auto r = study->RunAll();
    ++oc.attempted;
    if (!r.ok()) {
      ++oc.failed;
      oc.Fail("RunAll: " + r.status().ToString());
      return out;
    }
    reference = core::RenderReport(*r, n);
  }
  Samples pass_s;
  Samples pass_us;
  const Clock::time_point window = Clock::now();
  while (pass_s.size() < kMinStudyPasses ||
         SecondsSince(window) < args.seconds) {
    const Clock::time_point t0 = Clock::now();
    auto r = study->RunAll();
    const double s = SecondsSince(t0);
    ++oc.attempted;
    if (!r.ok()) {
      ++oc.failed;
      oc.Fail("RunAll: " + r.status().ToString());
      return out;
    }
    pass_s.Add(s);
    pass_us.Add(s * 1e6);
    std::string text = core::RenderReport(*r, n);
    if (args.corrupt_response && pass_s.size() == 1) {
      text[text.size() / 2] ^= 1;
    }
    oc.Require(text == reference,
               "RenderReport text differs between passes");
  }
  out.facts["report_fnv"] = Hex(bench::FnvString(reference));

  out.e2e.Add("setup_s", setup_s.Median(), "s", setup_s.size(), "Generate");
  out.e2e.Add("step_s", Sustained(&pass_s), "s", pass_s.size(),
              "RunAll, sustained over the passes");
  std::vector<Slice> passes = {
      MakeSlice(&pass_us, pass_s.size() / pass_s.Sum())};
  AddStreamMetrics(&out.e2e, &passes, "RunAll passes");
  AddPeakRss(&out.e2e);

  if (args.trace) {
    // RunAll again, alternately untraced and under a span capture; the
    // study.* spans RunAll opens around its seven analyses are the layers.
    LayerSamples layers;
    Samples traced_wall;
    Samples untraced_wall;
    for (int pass = 0; pass < kTraceReps; ++pass) {
      Clock::time_point t0 = Clock::now();
      oc.Require(study->RunAll().ok(), "RunAll failed");
      untraced_wall.Add(SecondsSince(t0));
      util::SpanCapture capture(kMaxSpans);
      t0 = Clock::now();
      auto r = study->RunAll();
      traced_wall.Add(SecondsSince(t0));
      ++oc.attempted;
      if (!r.ok()) {
        ++oc.failed;
        oc.Fail("traced RunAll: " + r.status().ToString());
        return out;
      }
      oc.Require(core::RenderReport(*r, n) == reference,
                 "traced RunAll renders a different report");
      layers.AddSpans(&capture, kStudySpans, &oc);
    }
    layers.Emit(&out.layers, "median of traced RunAll passes");
    out.layers.Add("gen.generate_s", setup_s.Median(), "s", setup_s.size(),
                   "Generate, as setup_s");
    AddCoverage(&out.layers, layers.MedianSum(), pass_s.Median(),
                &traced_wall, &untraced_wall, "RunAll");
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve_zipf / serve_sharded: a static front door over one ENG2 snapshot.

struct ServeFrontDoor {
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::ShardedRouter> router;
  bool from_cache = false;
  bool partition_from_cache = false;
  bool oracle = false;

  template <typename Fn>
  auto Visit(Fn&& fn) {
    return router ? fn(router.get()) : fn(engine.get());
  }
};

serve::EngineOptions EngineOptionsFor(bool sharded, const Snapshot& snap) {
  serve::EngineOptions opt;
  opt.threads = sharded ? 1 : std::max(1, Nproc() - 1);
  opt.warm_index_path = snap.widx;
  return opt;
}

Result<ServeFrontDoor> OpenFrontDoor(bool sharded, const Snapshot& snap,
                                     graph::DiGraph g) {
  ServeFrontDoor fd;
  if (sharded) {
    serve::RouterOptions ropt;
    ropt.engine = EngineOptionsFor(true, snap);
    ropt.partition_path = serve::PartitionPathFor(snap.eng2);
    EN_ASSIGN_OR_RETURN(fd.router,
                        serve::ShardedRouter::Create(std::move(g), ropt));
    fd.from_cache = fd.router->warm_index_from_cache();
    fd.partition_from_cache = fd.router->partition_from_cache();
    fd.oracle = fd.router->distance_oracle_active();
  } else {
    EN_ASSIGN_OR_RETURN(
        fd.engine, serve::QueryEngine::Create(std::move(g),
                                              EngineOptionsFor(false, snap)));
    fd.from_cache = fd.engine->warm_index_from_cache();
    fd.oracle = fd.engine->distance_oracle_active();
  }
  return fd;
}

/// Per-shard executed-task counts (router) — the #stats "shards" array.
std::vector<uint64_t> ShardExecuted(serve::ShardedRouter* router) {
  std::vector<uint64_t> v;
  for (const auto& s : router->StatsContext().shards) v.push_back(s.executed);
  return v;
}

RunResult RunServe(const Args& args, bool sharded) {
  RunResult out;
  Outcome& oc = out.outcome;
  const int nproc = Nproc();
  util::SetThreadCount(nproc);
  const uint32_t users = args.users ? args.users : kServeUsers;
  // Load: one client thread. Program: nproc-1 engine workers, or the
  // router's 1 worker + 2 shards x 1 thread.
  out.threads = sharded ? 3 : nproc - 1;

  // --- set-up in fresh directories: kSetupReps untraced; a traced run
  // alternates untraced and captured repetitions, kTraceReps of each ----
  Samples setup_s;
  Samples traced_setup_s;
  LayerSamples setup_layers;
  Snapshot snap;
  std::optional<ServeFrontDoor> fd;
  std::string first_response;
  std::optional<Mix> mix;
  const int setup_reps = args.trace ? 2 * kTraceReps : kSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    fd.reset();
    const std::string dir =
        MakeDir(args.workdir, "setup" + std::to_string(rep));
    std::optional<util::SpanCapture> capture;
    if (traced) capture.emplace(kMaxSpans);
    double steps[3];
    const Clock::time_point t0 = Clock::now();
    auto g = WriteAndLoad(users, dir, &snap, steps);
    if (!g.ok()) {
      oc.Fail("set-up: " + g.status().ToString());
      return out;
    }
    double inputs_s = 0.0;
    if (!mix) {  // the replayed input: made once, kept out of the timing
      const Clock::time_point m0 = Clock::now();
      mix = MakeMix(*g, args.seed);
      inputs_s = SecondsSince(m0);
    }
    auto door = OpenFrontDoor(sharded, snap, std::move(*g));
    if (!door.ok()) {
      oc.Fail("cold start: " + door.status().ToString());
      return out;
    }
    fd.emplace(std::move(*door));
    first_response = fd->Visit(
        [&](auto* s) { return s->ExecuteLine(mix->line(0)).json; });
    (traced ? traced_setup_s : setup_s).Add(SecondsSince(t0) - inputs_s);
    if (traced) AddSetupRep(steps, &*capture, &setup_layers, &oc);
    ++oc.attempted;
    oc.Require(!fd->from_cache, "cold start restored a .widx instead of "
                                "building (warm_index_from_cache)");
    if (sharded) {
      oc.Require(!fd->partition_from_cache,
                 "cold start restored a .pidx instead of partitioning");
    }
    oc.Require(fd->oracle, "distance oracle inactive after cold start");
  }
  out.facts["users"] = std::to_string(snap.nodes);
  out.facts["edges"] = std::to_string(snap.edges);

  // --- kServeRounds x (restarts, ServeLines slice, Submit slice) ---------
  // Every round restarts from ENG2 + sidecars once untimed, then
  // kRestartsPerRound times timed, and keeps the last front door (so it
  // starts with an empty result cache), then replays the mix from its
  // first position. The untimed restart is the one that follows the
  // previous round's serve phases (and tears down their front door with
  // its filled caches). On some runs it was about a fifth slower than the
  // restarts after it, so timing it split the samples into two levels and
  // the sustained level jumped between them from run to run.
  ResponseLedger ledger(kMixSize);
  const int window = std::max(1, nproc - 1);
  const double slice_s = args.seconds / (2.0 * kServeRounds);
  Samples restart_s;
  LayerSamples restart_layers;
  std::vector<Slice> line_slices;
  std::vector<Slice> submit_slices;
  std::optional<LinesPhase> lines;  // the last round's, for the trace
  std::vector<uint64_t> shards_before;
  for (int round = 0; round < kServeRounds; ++round) {
    for (int restart = 0; restart <= kRestartsPerRound; ++restart) {
      const bool timed = restart > 0;
      fd.reset();
      std::optional<util::SpanCapture> capture;
      if (args.trace && timed) capture.emplace(kMaxSpans);
      const Clock::time_point t0 = Clock::now();
      auto g = graph::MapBinary(snap.eng2);
      if (!g.ok()) {
        oc.Fail("restart load: " + g.status().ToString());
        return out;
      }
      auto door = OpenFrontDoor(sharded, snap, std::move(*g));
      if (!door.ok()) {
        oc.Fail("restart: " + door.status().ToString());
        return out;
      }
      fd.emplace(std::move(*door));
      const std::string json = fd->Visit(
          [&](auto* s) { return s->ExecuteLine(mix->line(0)).json; });
      if (timed) restart_s.Add(SecondsSince(t0));
      if (capture) restart_layers.AddSpans(&*capture, kRestartSpans, &oc);
      ++oc.attempted;
      oc.Require(json == first_response,
                 "first response after restart differs from the cold start");
      oc.Require(fd->from_cache,
                 "restart rebuilt instead of restoring .widx");
      if (sharded) {
        oc.Require(fd->partition_from_cache,
                   "restart re-partitioned instead of restoring .pidx");
      }
      oc.Require(fd->oracle, "distance oracle inactive after restart");
    }
    if (sharded) shards_before = ShardExecuted(fd->router.get());

    fd->Visit([&](auto* s) {
      LinesClient client(s, /*pin_process=*/true);
      lines.emplace(RunLines(&client, *mix, slice_s,
                             round == 0 ? kChecksumPrefix : 0, &ledger,
                             args.corrupt_response && round == 0, &oc,
                             &line_slices));
      return 0;
    });
    fd->Visit([&](auto* s) {
      const SubmitPhase sp =
          RunSubmit(s, *mix, window, slice_s, ledger, &oc, &submit_slices);
      CheckSubmitTail(s, *mix, sp, &ledger, &oc);
      return 0;
    });
  }
  oc.Require(ledger.mismatches == 0,
             std::to_string(ledger.mismatches) +
                 " ServeLines responses differ between rounds");
  const std::optional<uint64_t> checksum = ledger.Checksum(kChecksumPrefix);
  oc.Require(checksum.has_value(), "checksum prefix not fully replayed");
  out.facts["checksum"] = Hex(checksum.value_or(0));

  // The router's byte-identity contract: the unsharded engine, restored
  // from the same sidecar, answers the checksum prefix identically.
  if (sharded) {
    auto g = graph::MapBinary(snap.eng2);
    std::unique_ptr<serve::QueryEngine> ref;
    if (g.ok()) {
      auto e = serve::QueryEngine::Create(std::move(*g),
                                          EngineOptionsFor(false, snap));
      if (e.ok()) ref = std::move(*e);
    }
    if (ref == nullptr) {
      oc.Fail("reference engine for the sharded checksum did not open");
    } else {
      ResponseLedger ref_ledger(kChecksumPrefix);
      for (size_t i = 0; i < kChecksumPrefix; ++i) {
        ref_ledger.Record(i, ref->Execute(mix->request(i)).json);
      }
      const auto ref_sum = ref_ledger.Checksum(kChecksumPrefix);
      out.facts["reference_checksum"] = Hex(ref_sum.value_or(0));
      oc.Require(ref_sum == checksum,
                 "sharded checksum differs from the unsharded engine's");
    }
  }

  out.e2e.Add("setup_s", setup_s.Median(), "s", setup_s.size(),
              sharded ? "generate + ENG2 write + load + partition + warm "
                        "build, to first response"
                      : "generate + ENG2 write + load + warm build, to first "
                        "response");
  out.e2e.Add("step_s", Sustained(&restart_s), "s", restart_s.size(),
              "restart: ENG2 mmap + sidecar restore, to first response, "
              "sustained over the restarts");
  AddStreamMetrics(&out.e2e, &line_slices,
                   "ServeLines closed loop, 1 client");
  AddPeakRss(&out.e2e);

  out.facts["submit_window"] = std::to_string(window);
  out.facts["cache_hit_ratio"] = std::to_string(
      fd->Visit([](auto* s) {
        const double h = s->cache_hits();
        const double m = s->cache_misses();
        return h + m > 0 ? h / (h + m) : 0.0;
      }));

  // Executor and router figures are cheap counters, so they are gathered
  // on every run and reported with the per-layer set.
  Report executor;
  {
    Report best;
    AddStreamMetrics(&best, &submit_slices,
                     "Submit, window " + std::to_string(window));
    const Metric& rps = best.metrics()[0];
    const Metric& tail = best.metrics()[2];
    executor.Add("serve.submit_rps", rps.value, "1/s", rps.samples, rps.note);
    executor.Add("serve.submit_p99_us", tail.value, "us", tail.samples,
                 tail.note);
  }
  fd->Visit([&](auto* s) {
    const util::QuantileSketch& q = s->telemetry().queue_wait_sketch();
    executor.Add("serve.queue_wait_p50_us", q.Quantile(0.5), "us", q.count());
    executor.Add("serve.queue_wait_p99_us", q.Quantile(0.99), "us",
                 q.count());
    uint64_t shed = 0;
    for (const auto& c : s->StatsContext().classes) shed += c.shed;
    executor.Add("serve.shed", static_cast<double>(shed), "count", 1);
    return 0;
  });
  if (sharded) {
    const std::vector<uint64_t> after = ShardExecuted(fd->router.get());
    double max = 0.0;
    double total = 0.0;
    for (size_t i = 0; i < after.size(); ++i) {
      const double d = static_cast<double>(after[i] - shards_before[i]);
      max = std::max(max, d);
      total += d;
    }
    executor.Add("serve.shard_balance",
                 total > 0 ? max / (total / after.size()) : 0.0, "ratio",
                 static_cast<uint64_t>(total), "max / mean shard tasks");
  }
  for (const Metric& m : executor.metrics()) {
    if (args.trace) {
      out.layers.Add(m.name, m.value, m.unit, m.samples, m.note);
    } else {
      out.facts[m.name] = std::to_string(m.value);
    }
  }

  if (args.trace) {
    setup_layers.Emit(&out.layers, "median of traced cold starts");
    restart_layers.Emit(&out.layers, "median of traced restarts");
    fd->Visit([&](auto* s) {
      AddHubLabelCounts(s->warm_indexes(), &out.layers);
      return 0;
    });
    AddCoverage(&out.layers, setup_layers.MedianSum(), setup_s.Median(),
                &traced_setup_s, &setup_s, "set-up");
    fd->Visit([&](auto* s) {
      TraceRequestPath(s, *mix, *lines, &out.layers, &oc);
      return 0;
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve_live: reads at head while one writer applies churn and compacts.

RunResult RunLive(const Args& args) {
  RunResult out;
  Outcome& oc = out.outcome;
  const int nproc = Nproc();
  util::SetThreadCount(nproc);
  const uint32_t users = args.users ? args.users : kServeUsers;

  // Set-up repetitions as in RunServe: a traced run alternates untraced
  // and captured ones.
  Samples setup_s;
  Samples traced_setup_s;
  LayerSamples setup_layers;
  Snapshot snap;
  std::unique_ptr<serve::QueryEngine> engine;
  serve::LiveEngineOptions live;
  std::optional<Mix> mix;
  std::vector<serve::Mutation> trace;
  serve::EngineOptions opt;
  opt.threads = 1;  // ServeLines executes on its own thread
  const int setup_reps = args.trace ? 2 * kTraceReps : kSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    engine.reset();
    const std::string dir =
        MakeDir(args.workdir, "setup" + std::to_string(rep));
    std::optional<util::SpanCapture> capture;
    if (traced) capture.emplace(kMaxSpans);
    double steps[3];
    const Clock::time_point t0 = Clock::now();
    auto g = WriteAndLoad(users, dir, &snap, steps);
    if (!g.ok()) {
      oc.Fail("set-up: " + g.status().ToString());
      return out;
    }
    const Clock::time_point inputs0 = Clock::now();
    if (!mix) {
      // Inputs, made once and kept out of the timing.
      mix = MakeMix(*g, args.seed);
      gen::MutationTraceConfig tcfg;
      // Enough for the window plus the compactions it must finish.
      tcfg.num_mutations = kMutationsPerRound * kMaxRounds;
      tcfg.seed = args.seed;
      auto t = gen::GenerateMutationTrace(*g, tcfg);
      if (!t.ok()) {
        oc.Fail("mutation trace: " + t.status().ToString());
        return out;
      }
      for (const gen::EdgeMutation& em : t->mutations) {
        trace.push_back({em.follow ? serve::MutationOp::kFollow
                                   : serve::MutationOp::kUnfollow,
                         em.src, em.dst});
      }
    }
    const double inputs_s = SecondsSince(inputs0);
    live.log_path = dir + "/live.wal";
    live.compact_path = dir + "/compacted.eng2";
    live.compact_stream.temp_dir = dir;  // any sorter spill stays here
    opt.warm_index_path = snap.widx;
    auto e = serve::QueryEngine::CreateLive(std::move(*g), live, opt);
    if (!e.ok()) {
      oc.Fail("CreateLive: " + e.status().ToString());
      return out;
    }
    engine = std::move(*e);
    (void)engine->ExecuteLine(mix->line(0));
    (traced ? traced_setup_s : setup_s).Add(SecondsSince(t0) - inputs_s);
    if (traced) AddSetupRep(steps, &*capture, &setup_layers, &oc);
    ++oc.attempted;
    oc.Require(!engine->warm_index_from_cache(),
               "live cold start restored a .widx instead of building");
    oc.Require(engine->overlay_stats().recovered == 0,
               "CreateLive replayed a WAL left over from an earlier run");
    oc.Require(engine->distance_oracle_active(),
               "distance oracle inactive after live cold start");
  }
  out.facts["users"] = std::to_string(snap.nodes);
  out.facts["edges"] = std::to_string(snap.edges);

  // Load: the reader client and the writer. Program: the ServeLines
  // thread plus the compactor, whose parallel kernels get the rest.
  const int pool = std::max(1, nproc - 3);
  out.threads = pool + 1;
  util::SetThreadCount(pool);

  // Pinned reads checked across each compaction: adjacency and distance
  // at a fixed version are exact, so only "as_of" may move.
  std::vector<std::string> pinned_lines;
  for (size_t i = 0; pinned_lines.size() < 6 && i < mix->requests.size();
       ++i) {
    const serve::Request& r = mix->requests[i];
    if (r.type == serve::RequestType::kNeighbors ||
        r.type == serve::RequestType::kDistance) {
      pinned_lines.push_back(mix->lines[i]);
    }
  }

  // Two threads beside the reader: the writer applies the churn trace,
  // paced by the reads completed; the compactor calls CompactNow each time
  // kMutationsPerRound more mutations have landed. While a compaction
  // runs, the writer also captures reads pinned at the head version, and
  // the compactor re-reads each one whose version the fold kept (>= the
  // fold point) once the new epoch is in place.
  struct Pin {
    uint64_t version = 0;
    std::vector<std::string> responses;
  };
  std::atomic<bool> stop{false};  // set once the reader's window is over
  std::atomic<bool> compacting{false};
  std::atomic<bool> compactor_done{false};
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> applied{0};
  std::atomic<int> compactions{0};
  std::atomic<uint64_t> reads_done{0};
  std::mutex pins_mu;
  std::vector<Pin> pins;
  Samples apply_us;
  Samples compact_s;
  // The compactor thread's alone until it is joined.
  LayerSamples compact_layers;
  Outcome compact_outcome;
  uint64_t apply_failed = 0;
  uint64_t compact_failed = 0;
  uint64_t pinned_compared = 0;
  uint64_t pinned_mismatch = 0;
  uint64_t unchecked_compactions = 0;
  uint64_t max_rows = 0;
  uint64_t max_entries = 0;
  const uint64_t hits0 = engine->cache_hits();
  const uint64_t misses0 = engine->cache_misses();
  auto read_pinned = [&](uint64_t version) {
    const std::string pin = " @" + std::to_string(version);
    std::vector<std::string> out;
    for (const std::string& l : pinned_lines) {
      out.push_back(engine->ExecuteLine(l + pin).json);
    }
    return out;
  };
  std::thread writer([&] {
    // Writes continue until the last compaction has ended, so every
    // compaction runs beside churn.
    int pinned_for = -1;
    for (size_t k = 0; k < trace.size() && !compactor_done.load(); ++k) {
      while ((k + 1) * kReadsPerMutation > reads_done.load() &&
             !compactor_done.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const Clock::time_point t0 = Clock::now();
      auto r = engine->Apply(trace[k]);
      apply_us.Add(MicrosSince(t0));
      if (!r.ok() || !r->changed) ++apply_failed;
      applied.store(k + 1);
      const int round = compactions.load();
      if (compacting.load() && (k % kPinEvery == 0 || pinned_for != round)) {
        pinned_for = round;
        Pin pin;
        pin.version = engine->applied_version();
        pin.responses = read_pinned(pin.version);
        std::lock_guard<std::mutex> lock(pins_mu);
        pins.push_back(std::move(pin));
      }
    }
    writer_done = true;
  });
  std::thread compactor([&] {
    for (uint64_t due = kMutationsPerRound;; due += kMutationsPerRound) {
      while (applied.load() < due && !stop.load() && !writer_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (applied.load() < due || stop.load()) break;
      const serve::OverlayStats os = engine->overlay_stats();
      max_rows = std::max(max_rows, os.overlay_rows_fwd + os.overlay_rows_rev);
      max_entries = std::max(max_entries, os.overlay_entries);
      compacting = true;
      std::optional<util::SpanCapture> capture;
      if (args.trace) capture.emplace(kMaxSpans);
      const Clock::time_point t0 = Clock::now();
      auto cs = engine->CompactNow();
      compact_s.Add(SecondsSince(t0));
      if (args.trace) {
        compact_layers.AddSpans(&*capture, kCompactSpans, &compact_outcome);
      }
      compacting = false;
      if (!cs.ok()) {
        ++compact_failed;
        std::fprintf(stderr, "CompactNow: %s\n",
                     cs.status().ToString().c_str());
        break;
      }
      std::vector<Pin> taken;
      {
        std::lock_guard<std::mutex> lock(pins_mu);
        taken.swap(pins);
      }
      uint64_t compared = 0;
      for (const Pin& pin : taken) {
        if (pin.version < cs->folded_version) continue;  // folded away
        std::vector<std::string> after = read_pinned(pin.version);
        if (args.corrupt_response && compared == 0 && !after[0].empty()) {
          after[0][after[0].size() / 2] ^= 1;
        }
        for (size_t i = 0; i < after.size(); ++i) {
          if (IsErrorResponse(pin.responses[i]) || IsErrorResponse(after[i]) ||
              WithoutAsOf(pin.responses[i]) != WithoutAsOf(after[i])) {
            ++pinned_mismatch;
          }
        }
        ++compared;
      }
      pinned_compared += compared * pinned_lines.size();
      if (compared == 0) ++unchecked_compactions;
      ++compactions;
    }
    compactor_done = true;
  });
  std::optional<LinesPhase> lines;
  std::vector<Slice> read_slices;
  {
    LinesClient client(engine.get());
    // The reader keeps going until the last compaction ends: the writer
    // is paced by its reads.
    lines.emplace(RunLines(
        &client, *mix, args.seconds, 0, nullptr, false, &oc, &read_slices,
        [&] {
          if (compactions.load() >= kMinCompactions) stop = true;
          return !compactor_done.load();
        },
        [&] { reads_done.fetch_add(1); }));
  }
  compactor.join();
  writer.join();
  oc.Require(compact_outcome.correct, "a compaction's span capture failed");
  const double hits = static_cast<double>(engine->cache_hits() - hits0);
  const double lookups =
      hits + static_cast<double>(engine->cache_misses() - misses0);

  oc.attempted += apply_us.size() + compact_s.size() + pinned_compared;
  oc.failed += apply_failed + compact_failed + pinned_mismatch;
  oc.Require(apply_failed == 0,
             std::to_string(apply_failed) + " Apply calls failed");
  oc.Require(compact_failed == 0, "CompactNow failed");
  oc.Require(compact_s.size() >= static_cast<size_t>(kMinCompactions),
             "fewer compactions than the workload requires");
  oc.Require(pinned_mismatch == 0,
             std::to_string(pinned_mismatch) +
                 " pinned reads changed across a compaction");
  oc.Require(unchecked_compactions == 0,
             "a compaction ended with no pinned read to compare");
  const uint64_t applied_total = apply_us.size();
  struct stat st;
  const double wal_bytes =
      ::stat(live.log_path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                              : 0.0;

  out.e2e.Add("setup_s", setup_s.Median(), "s", setup_s.size(),
              "generate + ENG2 write + load + warm build + WAL open, to "
              "first response");
  out.e2e.Add("step_s", Sustained(&compact_s), "s", compact_s.size(),
              "CompactNow every " + std::to_string(kMutationsPerRound) +
                  " mutations, sustained over the compactions");
  AddStreamMetrics(&out.e2e, &read_slices,
                   "ServeLines reads at head, 1 client, beside churn");
  AddPeakRss(&out.e2e);

  Report live_layers;
  const Tail apply_tail = TailOf(&apply_us);
  live_layers.Add("serve.apply_us", apply_us.Median(), "us", apply_us.size(),
                  "median Apply, WAL on, fsync off");
  live_layers.Add("serve.apply_ops",
                  apply_us.size() / (apply_us.Sum() / 1e6), "1/s",
                  apply_us.size(), "Apply calls per second of Apply time");
  live_layers.Add("serve.apply_p99_us", apply_tail.value, "us",
                  apply_us.size(), apply_tail.label);
  live_layers.Add("serve.overlay_rows", static_cast<double>(max_rows),
                  "count", compact_s.size(), "largest at a compaction");
  live_layers.Add("serve.overlay_entries", static_cast<double>(max_entries),
                  "count", compact_s.size(), "largest at a compaction");
  live_layers.Add("serve.wal_bytes_per_op",
                  applied_total ? wal_bytes / applied_total : 0.0, "B",
                  applied_total);
  live_layers.Add("serve.cache_hit_ratio", lookups ? hits / lookups : 0.0,
                  "ratio", static_cast<uint64_t>(lookups),
                  std::to_string(static_cast<uint64_t>(hits)) + " hits");
  live_layers.Add("serve.cache_lookups", lookups, "count",
                  static_cast<uint64_t>(lookups));
  for (const Metric& m : live_layers.metrics()) {
    if (args.trace) {
      out.layers.Add(m.name, m.value, m.unit, m.samples, m.note);
    } else {
      out.facts[m.name] = std::to_string(m.value);
    }
  }

  if (args.trace) {
    compact_layers.Emit(&out.layers, "median over the compactions");
    setup_layers.Emit(&out.layers, "median of traced cold starts");
    // A live engine keeps its bundle on the current epoch, not in
    // warm_indexes().
    const serve::LiveSnapshot head = engine->live_snapshot();
    const auto* warm =
        static_cast<const serve::WarmIndexes*>(head.warm_payload());
    if (warm != nullptr) {
      AddHubLabelCounts(*warm, &out.layers);
    } else {
      oc.Fail("live engine has no warm bundle");
    }
    AddCoverage(&out.layers, setup_layers.MedianSum(), setup_s.Median(),
                &traced_setup_s, &setup_s, "set-up");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  return "\"" + serve::JsonEscape(s) + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintUsage(std::FILE* f) {
  std::fprintf(f,
               "usage: elitebench --workload=<study|serve_zipf|"
               "serve_sharded|serve_live>\n"
               "                  --seed=<n> --seconds=<n> --trace=<0|1> "
               "--workdir=<dir>\n"
               "                  [--users=<n>] [--rev=<text>] "
               "[--corrupt-response]\n");
}

bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  *out = std::strtoull(std::string(text).c_str(), nullptr, 10);
  return true;
}

/// Strict parser: every flag is --name=value (or the one bare switch);
/// anything unknown, duplicated or malformed is a usage error.
bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--corrupt-response") {
      args->corrupt_response = true;
      continue;
    }
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string_view::npos) return false;
    const std::string_view name = a.substr(2, eq - 2);
    const std::string_view value = a.substr(eq + 1);
    uint64_t v = 0;
    if (name == "workload") {
      args->workload = std::string(value);
      have[0] = true;
    } else if (name == "seed" && ParseUint(value, &v)) {
      args->seed = v;
      have[1] = true;
    } else if (name == "seconds" && ParseUint(value, &v) && v >= 1 &&
               v <= 60) {
      args->seconds = static_cast<double>(v);
      have[2] = true;
    } else if (name == "trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
      have[3] = true;
    } else if (name == "workdir" && !value.empty()) {
      args->workdir = std::string(value);
    } else if (name == "users" && ParseUint(value, &v) && v >= 500 &&
               v <= 1000000) {
      args->users = static_cast<uint32_t>(v);
    } else if (name == "rev") {
      args->rev = std::string(value);
    } else {
      return false;
    }
  }
  const bool known = args->workload == "study" ||
                     args->workload == "serve_zipf" ||
                     args->workload == "serve_sharded" ||
                     args->workload == "serve_live";
  return known && have[1] && have[2] && have[3] && !args->workdir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage(stderr);
    return 2;
  }
  ::mkdir(args.workdir.c_str(), 0755);

  RunResult r;
  if (args.workload == "study") {
    r = RunStudy(args);
  } else if (args.workload == "serve_live") {
    r = RunLive(args);
  } else {
    r = RunServe(args, args.workload == "serve_sharded");
  }

  // Human-readable report: every metric by name, unit and sample count.
  for (const Metric& m : r.e2e.metrics()) {
    std::printf("e2e   %-26s %14.6g %-6s n=%-8llu %s\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.c_str());
  }
  for (const Metric& m : r.layers.metrics()) {
    std::printf("layer %-26s %14.6g %-6s n=%-8llu %s\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.c_str());
  }
  const double fail_frac =
      r.outcome.attempted
          ? static_cast<double>(r.outcome.failed) / r.outcome.attempted
          : 0.0;

  // Summary: run identity and context. No performance claim is made.
  std::string summary =
      "{\"summary\":{\"workload\":" + JsonString(args.workload);
  summary += ",\"seed\":" + std::to_string(args.seed);
  summary += ",\"trace\":" + std::to_string(args.trace);
  summary += ",\"rev\":" + JsonString(args.rev);
  summary += ",\"build_type\":" + JsonString(ELITEBENCH_BUILD_TYPE);
  summary += ",\"nproc\":" + std::to_string(Nproc());
  summary += ",\"threads\":" + std::to_string(r.threads);
  summary += ",\"fail_frac\":" + Num(fail_frac);
  summary += ",\"fail_base\":" + std::to_string(r.outcome.attempted);
  for (const auto& [k, v] : r.facts) {
    summary += "," + JsonString(k) + ":" + JsonString(v);
  }
  summary += "},\"claim\":null}";
  std::printf("%s\n", summary.c_str());

  // Result line: exactly the metric set of this mode, every name present.
  std::string json = "{\"correct\":";
  json += r.outcome.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(std::max<uint64_t>(
                                  1, r.outcome.attempted));
  json += ",\"failed\":" + std::to_string(r.outcome.failed);
  json += ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    if (!first) json += ',';
    first = false;
    json += JsonString(name) + ":{\"value\":" + Num(value) +
            ",\"unit\":" + JsonString(unit) + "}";
  };
  if (args.trace) {
    std::map<std::string, const Metric*> by_name;
    for (const Metric& m : r.layers.metrics()) by_name[m.name] = &m;
    for (const auto& [name, unit] : LayerNames()) {
      auto it = by_name.find(name);
      emit(name, it == by_name.end() ? 0.0 : it->second->value, unit);
    }
  } else {
    for (const Metric& m : r.e2e.metrics()) emit(m.name, m.value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace elitenet

int main(int argc, char** argv) {
  return elitenet::perfbench::Main(argc, argv);
}
