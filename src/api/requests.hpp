// Transport-agnostic request API (DESIGN.md §10).
//
// One typed `Request`/`Response` pair per operation the project exposes,
// with a JSON round-trip for each, executed by one `api::execute(request,
// session)` entry point (session.hpp).  `icsdiv_cli` is an argv→Request
// adapter and `icsdivd` a socket→Request adapter over the same structs,
// so the two front-ends cannot drift: the CLI's `optimize` and a daemon
// client's `optimize` run byte-for-byte the same code on the same inputs.
//
// Wire envelope (shared by the daemon protocol and CLI `--format json`):
//
//   request:   {"icsdivd": 1, "request": "optimize", ...fields}
//   response:  {"icsdivd": 1, "status": "ok", "response": "optimize",
//               "result": {...}}
//   failure:   {"icsdivd": 1, "status": "<code>", "error":
//               {"code", "message", "detail"[, "retry_after_seconds"]}}
//
// "icsdivd" is the protocol version handshake: requests may omit it, but
// when present it must equal kProtocolVersion; responses always carry it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/document.hpp"
#include "api/status.hpp"
#include "runner/artifact_cache.hpp"
#include "support/json.hpp"

namespace icsdiv::api {

/// Wire protocol version; bumped on incompatible envelope/schema changes.
inline constexpr std::int64_t kProtocolVersion = 1;

/// Server identification string reported by `version` and `status`.
inline constexpr std::string_view kServerName = "icsdivd/1.0";

// ---------------------------------------------------------------------------
// Requests.  Documents (catalog, network, assignment, feed, grid) are
// carried inline as canonical-text Documents (document.hpp) — the
// transport never sees file paths.
//
// Every compute request carries an optional `timeout_ms` (0 = unbounded):
// a wall-clock deadline over the request's whole server-side life,
// admission-queue wait included.  Expiry surfaces as `deadline_exceeded`
// — except `optimize`, whose best-primal solvers return the best
// assignment seen so far with `truncated: true` instead of failing.
// Deadlines never change a completed result and are excluded from cache
// keys: coalesced executions extend to the *latest* participant deadline,
// so a shared compute is cancelled only when the last waiter gives up.

/// Compute the diversified assignment α̂ for a network ("optimize").
struct OptimizeRequest {
  Document catalog;
  Document network;
  /// Registry name; empty = the default solver ("trws").
  std::string solver;
  /// Solver iteration cap; 0 = the solver default.  Part of the solve
  /// cache key (different caps are different solves).
  std::size_t max_iterations = 0;
  std::int64_t timeout_ms = 0;  ///< wall-clock deadline; 0 = none
};

/// Diversity metrics of an existing assignment; with an entry/target host
/// pair also d_bn, least attack effort and a 500-run MTTC estimate.
struct EvaluateRequest {
  Document catalog;
  Document network;
  Document assignment;
  std::string entry;   ///< host name; both or neither of entry/target
  std::string target;  ///< host name
  std::int64_t timeout_ms = 0;  ///< wall-clock deadline; 0 = none
};

/// Human-readable diversification report (full listing included).
struct ReportRequest {
  Document catalog;
  Document network;
  Document assignment;
  std::int64_t timeout_ms = 0;  ///< wall-clock deadline; 0 = none
};

/// Pairwise CVE-overlap similarity of CPE queries against an NVD feed.
struct SimilarityRequest {
  Document feed;
  std::vector<std::string> cpes;  ///< at least two
  std::int64_t timeout_ms = 0;  ///< wall-clock deadline; 0 = none
};

/// Run a scenario grid through the staged batch engine.
struct BatchRequest {
  Document grid;
  std::size_t threads = 0;  ///< batch worker threads; 0 = hardware
  std::int64_t timeout_ms = 0;  ///< wall-clock deadline; 0 = none
  std::string store_dir;  ///< on-disk artifact store (DESIGN.md §13); "" = off
};

/// d_bn (Def. 6) for one entry/target pair on an existing assignment.
struct MetricRequest {
  Document catalog;
  Document network;
  Document assignment;
  std::string entry;   ///< host name
  std::string target;  ///< host name
  std::int64_t timeout_ms = 0;  ///< wall-clock deadline; 0 = none
};

/// Daemon/service introspection: uptime, cache counters, load.
struct StatusRequest {};

/// Protocol/server version handshake.
struct VersionRequest {};

using Request = std::variant<OptimizeRequest, EvaluateRequest, ReportRequest, SimilarityRequest,
                             BatchRequest, MetricRequest, StatusRequest, VersionRequest>;

/// The request's wire name ("optimize", "evaluate", ...).
[[nodiscard]] std::string_view request_name(const Request& request) noexcept;

/// All request names, in wire order (for `version` and usage strings).
[[nodiscard]] std::vector<std::string> request_names();

/// Full wire envelope, {"icsdivd": 1, "request": name, ...fields}.
[[nodiscard]] support::Json request_to_wire(const Request& request);

/// Decodes one request frame (the envelope's JSON text).  Throws
/// ParseError on malformed JSON (what Json::parse would throw), and
/// InvalidArgument on unknown request names, unknown keys, missing
/// fields, or a protocol version mismatch.  A canonical frame's documents
/// adopt their spans of it without copying; any other frame is
/// normalised once (parse, then dump) first, so spacing never changes a
/// document's digest.  With a `documents` table, a document value whose
/// bytes begin with an interned text is skipped by the scan and adopts
/// that text and digest, and every other document is interned; the
/// Request, or the error thrown, is the same as without a table.
[[nodiscard]] Request request_from_frame(std::string frame, DocumentTable* documents = nullptr);

/// request_from_frame over an already-parsed envelope.
[[nodiscard]] Request request_from_wire(const support::Json& wire);

// ---------------------------------------------------------------------------
// Responses.  `cached` reports whether the session served the result from
// its warm cross-request cache (false on the execution that computed it).

struct OptimizeResponse {
  support::Json assignment;
  double energy = 0.0;
  double pairwise_similarity = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  /// The deadline expired mid-solve and this is the best assignment seen
  /// so far, not a finished solve.  Truncated results are never cached.
  bool truncated = false;
  double solve_seconds = 0.0;  ///< duration of the execution that solved it
  bool cached = false;
};

struct EvaluateResponse {
  double edge_similarity = 0.0;
  double average_similarity = 0.0;
  double normalized_richness = 0.0;
  /// Entry/target block (present when the request named a pair).
  bool pair_evaluated = false;
  double d_bn = 0.0;
  double log10_p_with = 0.0;
  /// Least attack effort in exploits; absent = target unreachable.
  std::optional<std::size_t> exploit_count;
  std::size_t mttc_runs = 0;
  double mttc_mean = 0.0;
  double mttc_uncensored_mean = 0.0;
  std::size_t mttc_censored = 0;
  bool cached = false;
};

struct ReportResponse {
  std::string text;
  bool cached = false;
};

struct SimilarityResponse {
  struct Pair {
    std::string a;
    std::string b;
    double similarity = 0.0;
    std::size_t shared = 0;
    std::size_t count_a = 0;
    std::size_t count_b = 0;
  };
  std::vector<Pair> pairs;
  bool cached = false;
};

struct BatchResponse {
  /// runner::BatchReport::to_json() — cells, aggregates, stage_stats.
  support::Json report;
  /// The per-cell CSV (what `icsdiv_cli batch --csv` writes).
  std::string csv;
  std::size_t cells = 0;
  std::size_t failed = 0;
  bool cached = false;
};

struct MetricResponse {
  double d_bn = 0.0;
  double p_with = 0.0;
  double p_without = 0.0;
  bool cached = false;
};

/// Service health/introspection (the registry exemplar's
/// {name, address, status, uptime} shape, plus the cache counters that
/// make coalescing observable).
struct StatusResponse {
  std::int64_t protocol = kProtocolVersion;
  std::string server = std::string(kServerName);
  double uptime_seconds = 0.0;
  std::size_t requests_total = 0;
  std::size_t requests_failed = 0;
  std::size_t requests_rejected = 0;  ///< admission-queue rejections
  std::size_t requests_admitted = 0;  ///< requests that passed the gate
  /// Requests lost to their own deadline (queue-wait expiry included) or
  /// an explicit cancellation.
  std::size_t requests_deadline = 0;
  std::size_t in_flight = 0;          ///< requests currently executing
  std::size_t queued = 0;             ///< requests waiting for admission
  /// Cumulative compute time of cache-missing solve/eval executions.
  double solve_seconds_total = 0.0;
  /// Cumulative wall time of executed (non-coalesced) batch requests.
  double batch_wall_seconds_total = 0.0;
  /// Per-cache counters: planned = lookups, executed = computations,
  /// hits = served warm or coalesced onto an in-flight execution.
  runner::StageCounters model_cache;
  runner::StageCounters solve_cache;
  runner::StageCounters eval_cache;
  runner::StageCounters batch_cache;
  /// The session's table of decoded request documents.
  DocumentTableStats documents;
  /// Stage counters accumulated over every executed batch request.
  runner::StageStats batch_stages;
};

struct VersionResponse {
  std::int64_t protocol = kProtocolVersion;
  std::string server = std::string(kServerName);
  std::vector<std::string> requests;
  std::vector<std::string> solvers;
  std::vector<std::string> constraint_recipes;
};

using Response = std::variant<OptimizeResponse, EvaluateResponse, ReportResponse,
                              SimilarityResponse, BatchResponse, MetricResponse, StatusResponse,
                              VersionResponse>;

/// The response's wire name (matches the originating request's).
[[nodiscard]] std::string_view response_name(const Response& response) noexcept;

/// Success envelope, {"icsdivd": 1, "status": "ok", "response": name,
/// "result": {...}}.  Takes the response by value so a temporary's
/// assignment or report moves into the envelope instead of being copied.
[[nodiscard]] support::Json response_to_wire(Response response);

/// Failure envelope, {"icsdivd": 1, "status": code, "error": body}.
[[nodiscard]] support::Json error_to_wire(const ErrorBody& body);

/// Parses a response envelope; an error envelope rethrows the error it
/// describes (throw_error_body), a malformed one throws ParseError.
[[nodiscard]] Response response_from_wire(const support::Json& wire);

}  // namespace icsdiv::api
