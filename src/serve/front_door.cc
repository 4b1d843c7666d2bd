#include "serve/front_door.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "serve/warm_index_cache.h"
#include "util/metrics.h"
#include "util/string_utils.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

namespace {

util::Deadline DeadlineFor(const Request& r) {
  return r.deadline_us > 0 ? util::Deadline::After(r.deadline_us)
                           : util::Deadline::Infinite();
}

const char* SpanNameFor(RequestType type) {
  switch (type) {
    case RequestType::kEgoSummary:
      return "serve.ego";
    case RequestType::kTopKRank:
      return "serve.topk";
    case RequestType::kDistance:
      return "serve.dist";
    case RequestType::kNeighbors:
      return "serve.neighbors";
    case RequestType::kFingerprint:
      return "serve.fingerprint";
  }
  return "serve.unknown";
}

// Distinct macro call sites per type: the metrics macros cache their
// metric pointer per call site, so one shared site with a runtime name
// would bind every type to the first sketch it saw. Sketches carry live
// p50/p95/p99 per type at O(1) memory.
void RecordLatency(RequestType type, uint64_t micros) {
  switch (type) {
    case RequestType::kEgoSummary:
      ELITENET_SKETCH("serve.latency_us.ego", micros);
      break;
    case RequestType::kTopKRank:
      ELITENET_SKETCH("serve.latency_us.topk", micros);
      break;
    case RequestType::kDistance:
      ELITENET_SKETCH("serve.latency_us.dist", micros);
      break;
    case RequestType::kNeighbors:
      ELITENET_SKETCH("serve.latency_us.neighbors", micros);
      break;
    case RequestType::kFingerprint:
      ELITENET_SKETCH("serve.latency_us.fingerprint", micros);
      break;
  }
}

// Live result-cache key: the epoch disambiguates bases (the same version
// number can name different logical states across compaction lineages of
// different WALs), the resolved version makes unpinned requests cacheable
// — two unpinned requests admitted at the same version share an entry.
std::string LiveCacheKey(const LiveSnapshot& snap, const Request& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "e%" PRIu64 "@%" PRIu64 " ",
                snap.epoch_seq(), snap.version());
  return buf + CacheKey(r);
}

}  // namespace

/// One queued request. Held by shared_ptr because std::function is
/// copyable and std::promise is not.
struct FrontDoor::Job {
  Request req;
  util::Deadline deadline;
  std::promise<QueryResponse> promise;
  std::chrono::steady_clock::time_point submitted;
  Admission admission;
};

FrontDoor::FrontDoor(const EngineOptions& options)
    : options_(options), telemetry_(options.telemetry) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<util::ShardedLruCache<std::string, std::string>>(
        options_.cache_capacity, std::max<size_t>(1, options_.cache_shards));
  }
}

FrontDoor::~FrontDoor() = default;

void FrontDoor::Open() {
  executor_ = std::make_unique<QosExecutor>(std::max(1, options_.threads),
                                            options_.qos);
  if (!options_.metrics_path.empty()) {
    // Exposition implies recording: flip the util metrics switch so the
    // macro-based counters/sketches the snapshots embed are live.
    util::SetMetricsEnabled(true);
    exporter_ = std::make_unique<TelemetryExporter>(
        &telemetry_, options_.metrics_path, options_.metrics_interval_ms,
        [this] { return StatsContext(); });
  }
}

void FrontDoor::Close() {
  // The exporter's final snapshot must run while the backend (cache
  // counters, inflight gauge, shard stats) is still alive; draining the
  // executor then fulfils every queued promise.
  exporter_.reset();
  executor_.reset();
}

std::future<QueryResponse> FrontDoor::Submit(const Request& r) {
  auto job = std::make_shared<Job>();
  job->req = r;
  job->deadline = DeadlineFor(r);
  Admission& a = job->admission;
  // Sequence numbers are claimed at submission (not execution) so a
  // replayed request stream maps to the same trace ids no matter how the
  // workers interleave.
  if (telemetry_.enabled()) a.seq = telemetry_.NextSeq();
  // Admission-time resolve: the version a queued request answers at is
  // fixed here, before any queueing delay — so a request admitted at
  // version V answers at V no matter how long it waits or how many
  // mutations land meanwhile.
  a.resolved = true;
  a.status = ResolveSnapshot(r, &a.view);
  a.queued = true;
  job->submitted = std::chrono::steady_clock::now();
  std::future<QueryResponse> fut = job->promise.get_future();
  const bool admitted =
      executor_->Submit(r.qos, job->deadline, [this, job] {
        Admission& queued = job->admission;
        queued.queue_wait_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - job->submitted)
                .count());
        ELITENET_SKETCH("serve.queue.wait_us", queued.queue_wait_us);
        job->promise.set_value(Run(job->req, job->deadline, &queued));
      });
  if (!admitted) {
    // Shed at admission: the class backlog is at its cap. The request
    // never executes (the scheduler tallied the shed); the caller gets
    // the overloaded error immediately instead of a timeout.
    ELITENET_COUNT("serve.requests", 1);
    job->promise.set_value(MakeOverloadedResponse(r));
  }
  return fut;
}

QueryResponse FrontDoor::Execute(const Request& r) {
  return Execute(r, DeadlineFor(r));
}

QueryResponse FrontDoor::Execute(const Request& r,
                                 const util::Deadline& deadline) {
  Admission a;
  return Run(r, deadline, &a);
}

QueryResponse FrontDoor::ExecuteLine(std::string_view line) {
  auto parsed = ParseRequest(line);
  if (!parsed.ok()) return LineParseErrorResponse(line, parsed.status());
  return Execute(*parsed);
}

QueryResponse FrontDoor::Run(const Request& r, const util::Deadline& deadline,
                             Admission* a) {
  ELITENET_COUNT("serve.requests", 1);
  Telemetry* tel = telemetry_.enabled() ? &telemetry_ : nullptr;
  uint64_t seq = 0;
  uint64_t trace_id = 0;
  bool sampled = false;
  if (tel != nullptr) {
    // Synchronous Execute() claims its sequence here; Submit() claimed it
    // at enqueue time so trace ids follow submission order.
    seq = a->seq != 0 ? a->seq : tel->NextSeq();
    trace_id = TraceIdFor(seq);
    sampled = tel->Sampled(trace_id);
  }
  // Sampled requests capture their span tree via the thread-local sink;
  // unsampled ones pay only the null-pointer check inside each span.
  std::optional<util::SpanCapture> capture;
  if (sampled) capture.emplace();

  const int64_t inflight =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  ELITENET_GAUGE_SET("serve.inflight", inflight);
  util::SpanTimer timer;

  QueryResponse resp;
  {
    util::ScopedSpan span(SpanNameFor(r.type));
    if (!a->resolved) a->status = ResolveSnapshot(r, &a->view);
    if (!a->status.ok()) {
      resp = ErrorResponse(r, a->status);
    } else {
      std::string key;
      bool from_cache = false;
      if (cache_ != nullptr) {
        key = a->view.snap.valid() ? LiveCacheKey(a->view.snap, r)
                                   : CacheKey(r);
        std::string cached;
        if (cache_->Get(key, &cached)) {
          ELITENET_COUNT("serve.cache.hit", 1);
          resp.json = std::move(cached);
          resp.cache_hit = true;
          from_cache = true;
        } else {
          ELITENET_COUNT("serve.cache.miss", 1);
        }
      }
      if (!from_cache) {
        {
          ELITENET_SPAN("serve.compute");
          resp = Compute(r, deadline, a->view);
        }
        if (resp.ok && !resp.degraded && cache_ != nullptr) {
          cache_->Put(key, resp.json);
        }
      }
    }
  }  // root span closes here so a sampled capture sees its duration

  const uint64_t latency_us = static_cast<uint64_t>(timer.Seconds() * 1e6);
  RecordLatency(r.type, latency_us);
  // Keep the fetch_sub outside the macro: ELITENET_GAUGE_SET skips its
  // value argument when metrics are disabled, and the matching fetch_add
  // above runs unconditionally.
  const int64_t now_inflight =
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  ELITENET_GAUGE_SET("serve.inflight", now_inflight);
  if (tel != nullptr) {
    RequestRecord record;
    record.trace_id = trace_id;
    record.seq = seq;
    record.request = r;
    record.ok = resp.ok;
    record.degraded = resp.degraded;
    record.cache_hit = resp.cache_hit;
    record.sampled = sampled;
    record.queued = a->queued;
    record.queue_wait_us = a->queue_wait_us;
    record.latency_us = latency_us;
    record.deadline_slack_us = deadline.RemainingMicros();
    record.deadline_missed =
        !deadline.infinite() && record.deadline_slack_us == 0;
    record.oracle_fallback = r.type == RequestType::kDistance &&
                             !resp.cache_hit && a->view.warm != nullptr &&
                             a->view.warm->hub_labels.empty();
    if (capture.has_value()) {
      record.spans = capture->Take();
      record.spans_truncated = capture->truncated();
    }
    tel->Record(std::move(record));
  }
  return resp;
}

int FrontDoor::threads() const {
  return executor_ != nullptr ? executor_->threads() : 0;
}

uint64_t FrontDoor::cache_hits() const {
  return cache_ != nullptr ? cache_->hits() : 0;
}

uint64_t FrontDoor::cache_misses() const {
  return cache_ != nullptr ? cache_->misses() : 0;
}

void FrontDoor::ClearResultCache() {
  if (cache_ != nullptr) cache_->Clear();
}

EngineStatsContext FrontDoor::StatsContext() const {
  EngineStatsContext ctx;
  ctx.workers = threads();
  ctx.cache_hits = cache_hits();
  ctx.cache_misses = cache_misses();
  ctx.warmup_seconds = warmup_seconds_;
  ctx.warm_from_cache = warm_from_cache_;
  ctx.inflight = inflight_.load(std::memory_order_relaxed);
  if (executor_ != nullptr) {
    ctx.qos = true;
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      const QosClass cls = QosClassAt(i);
      ctx.classes[i] = executor_->class_stats(cls);
      ctx.class_deadline_miss[i] = telemetry_.class_deadline_miss(cls);
    }
  }
  AddStats(&ctx);
  return ctx;
}

std::string FrontDoor::AdminResponse(const AdminCommand& cmd) const {
  switch (cmd.kind) {
    case AdminCommand::Kind::kStats:
      return RenderStatsJson(telemetry_, StatsContext());
    case AdminCommand::Kind::kHealthz:
      return RenderHealthzJson(telemetry_, StatsContext());
    case AdminCommand::Kind::kRecent:
      return RenderRecentJson(telemetry_, cmd.n);
    case AdminCommand::Kind::kSlow:
      return RenderSlowJson(telemetry_, cmd.n);
    case AdminCommand::Kind::kTrace:
      return RenderTraceJson(telemetry_, cmd.trace_id);
    case AdminCommand::Kind::kVersion:
      return RenderVersionJson(StatsContext());
    case AdminCommand::Kind::kOverlay:
      return RenderOverlayJson(StatsContext());
  }
  return "{\"type\":\"error\",\"code\":\"internal\",\"message\":\"unhandled "
         "admin command\"}";
}

QueryResponse ErrorResponse(const Request& r, const Status& status) {
  ELITENET_COUNT("serve.errors", 1);
  QueryResponse resp;
  resp.ok = false;
  resp.json = "{\"type\":\"error\",\"code\":\"";
  resp.json += StatusCodeToString(status.code());
  resp.json += "\",\"message\":\"";
  resp.json += JsonEscape(status.message());
  resp.json += "\",\"request\":\"";
  resp.json += JsonEscape(CanonicalEncoding(r));
  resp.json += "\"}";
  return resp;
}

Status RejectVersionPin(const Request& r) {
  if (r.version == 0) return Status::OK();
  return Status::FailedPrecondition(
      "version pins require a live engine (static graph has no version "
      "history)");
}

QueryResponse MakeOverloadedResponse(const Request& r) {
  ELITENET_COUNT("serve.errors", 1);
  QueryResponse resp;
  resp.ok = false;
  resp.json = "{\"type\":\"error\",\"code\":\"overloaded\",\"message\":\"";
  resp.json += QosClassName(r.qos);
  resp.json +=
      " queue at capacity; request shed by admission control\","
      "\"request\":\"";
  resp.json += JsonEscape(CanonicalEncoding(r));
  resp.json += "\"}";
  return resp;
}

QueryResponse LineParseErrorResponse(std::string_view line,
                                     const Status& status) {
  ELITENET_COUNT("serve.requests", 1);
  ELITENET_COUNT("serve.errors", 1);
  QueryResponse resp;
  resp.ok = false;
  resp.json = "{\"type\":\"error\",\"code\":\"";
  resp.json += StatusCodeToString(status.code());
  resp.json += "\",\"message\":\"";
  resp.json += JsonEscape(status.message());
  resp.json += "\",\"request\":\"";
  resp.json += JsonEscape(util::StripAsciiWhitespace(line));
  resp.json += "\"}";
  return resp;
}

}  // namespace serve
}  // namespace elitenet
