// Typed requests for the query engine and their wire forms.
//
// The serving layer speaks a newline-delimited line protocol (one request
// per line in, one JSON object per line out). A request has three textual
// forms, all produced/consumed here:
//
//   * wire form     — what clients type: "ego 5", "topk 20",
//                     "dist 3 9 [deadline_us]", "neighbors 4 out 16",
//                     "fingerprint". Forgiving about whitespace. Any verb
//                     may carry a trailing "@<version>" token to pin the
//                     answer to one MVCC graph version on a live engine,
//                     and/or a trailing "!<class>" token naming the QoS
//                     class ({interactive, batch, analytics}; serve/qos.h)
//                     — in either order.
//   * canonical form — the normalized wire form. Parse(Canonical(r)) == r
//                     for every valid request (round-trip tested).
//   * cache key     — canonical form minus the deadline, because the
//                     deadline changes *whether* a result is computed in
//                     time, never what the result is; responses cached
//                     under the key are deadline-independent bytes.
//
// Responses are rendered elsewhere (engine.cc); this header only carries
// the small JSON string helpers both sides share.

#ifndef ELITENET_SERVE_REQUEST_H_
#define ELITENET_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/digraph.h"
#include "serve/qos.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

enum class RequestType : uint8_t {
  kEgoSummary = 0,   ///< "ego <node>" — degrees, components, rank, reach
  kTopKRank = 1,     ///< "topk <k>" — top-k users by PageRank
  kDistance = 2,     ///< "dist <src> <dst> [deadline_us]"
  kNeighbors = 3,    ///< "neighbors <node> <out|in> [limit]"
  kFingerprint = 4,  ///< "fingerprint" — signature + paper similarity
};

/// Stable protocol verb for a request type ("ego", "topk", ...).
const char* RequestTypeName(RequestType type);

enum class NeighborDirection : uint8_t { kOut = 0, kIn = 1 };

struct Request {
  RequestType type = RequestType::kEgoSummary;
  /// Subject node (ego, neighbors) or source (distance).
  graph::NodeId node = 0;
  /// Distance target.
  graph::NodeId target = 0;
  /// Top-k size.
  uint32_t k = 10;
  /// Neighbor page size.
  uint32_t limit = 32;
  NeighborDirection direction = NeighborDirection::kOut;
  /// Execution budget in microseconds; 0 = no deadline.
  uint64_t deadline_us = 0;
  /// Graph-version pin for live engines: a trailing "@<v>" token on any
  /// verb answers against the MVCC snapshot at version v. 0 = unpinned
  /// (the engine captures the current version at admission). Static
  /// engines reject pinned requests with FailedPrecondition.
  uint64_t version = 0;
  /// QoS class, from a trailing "!<class>" token ("topk 50 !batch").
  /// Orders dispatch and gates admission (serve/scheduler.h); never
  /// changes the bytes of an admitted response, so it is absent from the
  /// cache key.
  QosClass qos = QosClass::kInteractive;

  bool operator==(const Request&) const = default;
};

/// Parses one protocol line. Leading/trailing whitespace is ignored.
/// Returns InvalidArgument for unknown verbs, wrong arity, non-numeric or
/// out-of-range arguments, and zero k/limit.
Result<Request> ParseRequest(std::string_view line);

/// Normalized wire form; ParseRequest(CanonicalEncoding(r)) == r.
std::string CanonicalEncoding(const Request& r);

/// Canonical form without the deadline, QoS class, or version pin — the
/// result-cache key. The deadline never changes result bytes; the version does, but a
/// live engine keys its cache under an "e<epoch>@<resolved version>"
/// prefix it derives at admission (front_door.cc), which also covers unpinned
/// requests.
std::string CacheKey(const Request& r);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

/// Shortest round-trippable decimal for a double ("%.17g", with
/// nan/inf mapped to null) — deterministic across runs and platforms
/// using IEEE doubles.
std::string JsonDouble(double v);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_REQUEST_H_
