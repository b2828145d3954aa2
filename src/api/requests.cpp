#include "api/requests.hpp"

#include <cmath>
#include <initializer_list>
#include <memory>
#include <optional>

namespace icsdiv::api {

namespace {

// ---------------------------------------------------------------------------
// Schema helpers.  Requests are validated strictly: an unknown key is an
// InvalidArgument (typo safety — the historical CLI behaviour for grids),
// a missing required key names itself in the message.

[[noreturn]] void throw_missing(std::string_view key, std::string_view context) {
  throw InvalidArgument("missing required \"" + std::string(key) + "\" in " + std::string(context));
}

/// The top-level keys whose values are request documents.
bool is_document_key(std::string_view key) {
  return key == "catalog" || key == "network" || key == "assignment" || key == "feed" ||
         key == "grid";
}

/// A document value that a DocumentTable vouched for during the scan:
/// where its span starts in the frame, and the interned document.
struct TableMatch {
  const char* at;
  Document document;
};

/// A request envelope's top-level members over its canonical frame text.
/// Small fields parse on demand; documents adopt their span of the frame,
/// or the interned document when the table vouched for the span.
class Fields {
 public:
  Fields(std::shared_ptr<const std::string> frame, std::vector<support::JsonScan::Member> members,
         std::vector<TableMatch> matches, DocumentTable* table)
      : frame_(std::move(frame)),
        members_(std::move(members)),
        matches_(std::move(matches)),
        table_(table) {}

  [[nodiscard]] const std::vector<support::JsonScan::Member>& members() const { return members_; }

  [[nodiscard]] std::optional<support::Json> find(std::string_view key) const {
    const std::string_view* text = span(key);
    return text != nullptr ? std::optional(support::Json::parse(*text)) : std::nullopt;
  }

  [[nodiscard]] support::Json required(std::string_view key, std::string_view context) const {
    return support::Json::parse(required_span(key, context));
  }

  [[nodiscard]] Document document(std::string_view key, std::string_view context) const {
    const std::string_view text = required_span(key, context);
    for (const TableMatch& match : matches_) {
      if (match.at == text.data()) {
        table_->count_hit();
        return match.document;
      }
    }
    Document document = Document::adopt(frame_, text);
    if (table_ != nullptr) table_->intern(document);
    return document;
  }

 private:
  /// Canonical text has no duplicate keys, so the first match is the only one.
  [[nodiscard]] const std::string_view* span(std::string_view key) const {
    for (const support::JsonScan::Member& member : members_) {
      if (member.key == key) return &member.value;
    }
    return nullptr;
  }

  [[nodiscard]] std::string_view required_span(std::string_view key,
                                                std::string_view context) const {
    const std::string_view* text = span(key);
    if (text == nullptr) throw_missing(key, context);
    return *text;
  }

  std::shared_ptr<const std::string> frame_;
  std::vector<support::JsonScan::Member> members_;
  std::vector<TableMatch> matches_;
  DocumentTable* table_;
};

void check_keys(const Fields& fields, std::initializer_list<std::string_view> allowed,
                std::string_view context) {
  for (const support::JsonScan::Member& member : fields.members()) {
    bool known = false;
    for (const std::string_view name : allowed) known = known || member.key == name;
    if (!known) {
      throw InvalidArgument("unknown key \"" + member.key + "\" in " + std::string(context));
    }
  }
}

const support::Json& required_field(const support::JsonObject& object, std::string_view key,
                                    std::string_view context) {
  const support::Json* value = object.find(key);
  if (value == nullptr) throw_missing(key, context);
  return *value;
}

std::string optional_string(const Fields& fields, std::string_view key) {
  const std::optional<support::Json> value = fields.find(key);
  return value ? value->as_string() : std::string();
}

// Deadline field, shared by every compute request.  Omitted on the wire
// when 0 (no deadline) so pre-deadline clients and byte-parity pins are
// unaffected.

void timeout_to_wire(std::int64_t timeout_ms, support::JsonObject& object) {
  if (timeout_ms != 0) object.set("timeout_ms", timeout_ms);
}

std::int64_t timeout_from_wire(const Fields& fields, std::string_view context) {
  const std::optional<support::Json> value = fields.find("timeout_ms");
  if (!value) return 0;
  const std::int64_t timeout_ms = value->as_integer();
  if (timeout_ms < 0) {
    throw InvalidArgument(std::string(context) + " timeout_ms must be non-negative");
  }
  return timeout_ms;
}

/// Non-finite doubles have no JSON literal; they round-trip as null (the
/// report convention, DESIGN.md §9).
support::Json json_number(double value) {
  return std::isfinite(value) ? support::Json(value) : support::Json(nullptr);
}

double number_or_nan(const support::Json& json) {
  return json.is_null() ? std::nan("") : json.as_double();
}

support::Json counters_to_json(const runner::StageCounters& counters) {
  return counters.to_json();
}

runner::StageCounters counters_from_json(const support::Json& json) {
  const support::JsonObject& object = json.as_object();
  runner::StageCounters counters;
  counters.planned = static_cast<std::size_t>(object.at("planned").as_integer());
  counters.executed = static_cast<std::size_t>(object.at("executed").as_integer());
  counters.hits = static_cast<std::size_t>(object.at("hits").as_integer());
  counters.evicted = static_cast<std::size_t>(object.at("evicted").as_integer());
  return counters;
}

support::Json documents_to_json(const DocumentTableStats& stats) {
  support::JsonObject object;
  object.set("hits", stats.hits);
  object.set("misses", stats.misses);
  object.set("evicted", stats.evicted);
  object.set("entries", stats.entries);
  object.set("bytes", stats.bytes);
  return support::Json(std::move(object));
}

DocumentTableStats documents_from_json(const support::Json& json) {
  const support::JsonObject& object = json.as_object();
  const auto count = [&object](std::string_view key) {
    return static_cast<std::size_t>(object.at(key).as_integer());
  };
  DocumentTableStats stats;
  stats.hits = count("hits");
  stats.misses = count("misses");
  stats.evicted = count("evicted");
  stats.entries = count("entries");
  stats.bytes = count("bytes");
  return stats;
}

runner::StageStats stage_stats_from_json(const support::Json& json) {
  const support::JsonObject& object = json.as_object();
  runner::StageStats stats;
  stats.workload = counters_from_json(object.at("workload"));
  stats.problem = counters_from_json(object.at("problem"));
  stats.solve = counters_from_json(object.at("solve"));
  stats.channels = counters_from_json(object.at("channels"));
  stats.attack = counters_from_json(object.at("attack"));
  stats.metric = counters_from_json(object.at("metric"));
  return stats;
}

support::Json strings_to_json(const std::vector<std::string>& values) {
  support::JsonArray array;
  for (const std::string& value : values) array.emplace_back(value);
  return support::Json(std::move(array));
}

std::vector<std::string> strings_from_json(const support::Json& json) {
  std::vector<std::string> values;
  for (const support::Json& value : json.as_array()) values.push_back(value.as_string());
  return values;
}

// ---------------------------------------------------------------------------
// Request field (de)serialisation, one pair per type.  The envelope keys
// ("icsdivd", "request") are handled by request_to_wire/request_from_wire.

constexpr std::string_view kEnvelope[] = {"icsdivd", "request"};

void fields_to_wire(const OptimizeRequest& request, support::JsonObject& object) {
  object.set("catalog", request.catalog.json());
  object.set("network", request.network.json());
  if (!request.solver.empty()) object.set("solver", support::Json(request.solver));
  if (request.max_iterations != 0) {
    object.set("max_iterations", static_cast<std::int64_t>(request.max_iterations));
  }
  timeout_to_wire(request.timeout_ms, object);
}

OptimizeRequest optimize_from_wire(const Fields& fields) {
  check_keys(fields,
             {kEnvelope[0], kEnvelope[1], "catalog", "network", "solver", "max_iterations",
              "timeout_ms"},
             "optimize");
  OptimizeRequest request;
  request.catalog = fields.document("catalog", "optimize");
  request.network = fields.document("network", "optimize");
  request.solver = optional_string(fields, "solver");
  if (const std::optional<support::Json> iterations = fields.find("max_iterations")) {
    const std::int64_t value = iterations->as_integer();
    if (value < 0) throw InvalidArgument("optimize max_iterations must be non-negative");
    request.max_iterations = static_cast<std::size_t>(value);
  }
  request.timeout_ms = timeout_from_wire(fields, "optimize");
  return request;
}

void fields_to_wire(const EvaluateRequest& request, support::JsonObject& object) {
  object.set("catalog", request.catalog.json());
  object.set("network", request.network.json());
  object.set("assignment", request.assignment.json());
  if (!request.entry.empty()) object.set("entry", support::Json(request.entry));
  if (!request.target.empty()) object.set("target", support::Json(request.target));
  timeout_to_wire(request.timeout_ms, object);
}

EvaluateRequest evaluate_from_wire(const Fields& fields) {
  check_keys(fields,
             {kEnvelope[0], kEnvelope[1], "catalog", "network", "assignment", "entry", "target",
              "timeout_ms"},
             "evaluate");
  EvaluateRequest request;
  request.catalog = fields.document("catalog", "evaluate");
  request.network = fields.document("network", "evaluate");
  request.assignment = fields.document("assignment", "evaluate");
  request.entry = optional_string(fields, "entry");
  request.target = optional_string(fields, "target");
  if (request.entry.empty() != request.target.empty()) {
    throw InvalidArgument("evaluate needs both entry and target, or neither");
  }
  request.timeout_ms = timeout_from_wire(fields, "evaluate");
  return request;
}

void fields_to_wire(const ReportRequest& request, support::JsonObject& object) {
  object.set("catalog", request.catalog.json());
  object.set("network", request.network.json());
  object.set("assignment", request.assignment.json());
  timeout_to_wire(request.timeout_ms, object);
}

ReportRequest report_from_wire(const Fields& fields) {
  check_keys(fields,
             {kEnvelope[0], kEnvelope[1], "catalog", "network", "assignment", "timeout_ms"},
             "report");
  ReportRequest request;
  request.catalog = fields.document("catalog", "report");
  request.network = fields.document("network", "report");
  request.assignment = fields.document("assignment", "report");
  request.timeout_ms = timeout_from_wire(fields, "report");
  return request;
}

void fields_to_wire(const SimilarityRequest& request, support::JsonObject& object) {
  object.set("feed", request.feed.json());
  object.set("cpes", strings_to_json(request.cpes));
  timeout_to_wire(request.timeout_ms, object);
}

SimilarityRequest similarity_from_wire(const Fields& fields) {
  check_keys(fields, {kEnvelope[0], kEnvelope[1], "feed", "cpes", "timeout_ms"}, "similarity");
  SimilarityRequest request;
  request.feed = fields.document("feed", "similarity");
  request.cpes = strings_from_json(fields.required("cpes", "similarity"));
  if (request.cpes.size() < 2) {
    throw InvalidArgument("similarity needs at least two cpe queries");
  }
  request.timeout_ms = timeout_from_wire(fields, "similarity");
  return request;
}

void fields_to_wire(const BatchRequest& request, support::JsonObject& object) {
  object.set("grid", request.grid.json());
  if (request.threads != 0) object.set("threads", request.threads);
  timeout_to_wire(request.timeout_ms, object);
  if (!request.store_dir.empty()) object.set("store_dir", support::Json(request.store_dir));
}

BatchRequest batch_from_wire(const Fields& fields) {
  check_keys(fields, {kEnvelope[0], kEnvelope[1], "grid", "threads", "timeout_ms", "store_dir"},
             "batch");
  BatchRequest request;
  request.grid = fields.document("grid", "batch");
  if (const std::optional<support::Json> threads = fields.find("threads")) {
    const std::int64_t value = threads->as_integer();
    if (value < 0) throw InvalidArgument("batch threads must be non-negative");
    request.threads = static_cast<std::size_t>(value);
  }
  request.timeout_ms = timeout_from_wire(fields, "batch");
  if (const std::optional<support::Json> store = fields.find("store_dir")) {
    request.store_dir = store->as_string();
  }
  return request;
}

void fields_to_wire(const MetricRequest& request, support::JsonObject& object) {
  object.set("catalog", request.catalog.json());
  object.set("network", request.network.json());
  object.set("assignment", request.assignment.json());
  object.set("entry", support::Json(request.entry));
  object.set("target", support::Json(request.target));
  timeout_to_wire(request.timeout_ms, object);
}

MetricRequest metric_from_wire(const Fields& fields) {
  check_keys(fields,
             {kEnvelope[0], kEnvelope[1], "catalog", "network", "assignment", "entry", "target",
              "timeout_ms"},
             "metric");
  MetricRequest request;
  request.catalog = fields.document("catalog", "metric");
  request.network = fields.document("network", "metric");
  request.assignment = fields.document("assignment", "metric");
  request.entry = fields.required("entry", "metric").as_string();
  request.target = fields.required("target", "metric").as_string();
  request.timeout_ms = timeout_from_wire(fields, "metric");
  return request;
}

void fields_to_wire(const StatusRequest&, support::JsonObject&) {}

StatusRequest status_from_wire(const Fields& fields) {
  check_keys(fields, {kEnvelope[0], kEnvelope[1]}, "status");
  return StatusRequest{};
}

void fields_to_wire(const VersionRequest&, support::JsonObject&) {}

VersionRequest version_from_wire(const Fields& fields) {
  check_keys(fields, {kEnvelope[0], kEnvelope[1]}, "version");
  return VersionRequest{};
}

// ---------------------------------------------------------------------------
// Response result (de)serialisation.

support::Json result_to_json(OptimizeResponse response) {
  support::JsonObject object;
  object.set("assignment", std::move(response.assignment));
  object.set("energy", json_number(response.energy));
  object.set("pairwise_similarity", json_number(response.pairwise_similarity));
  object.set("iterations", response.iterations);
  object.set("converged", response.converged);
  // Omitted when false: complete results stay byte-identical to the
  // pre-deadline wire format.
  if (response.truncated) object.set("truncated", true);
  object.set("solve_seconds", response.solve_seconds);
  object.set("cached", response.cached);
  return support::Json(std::move(object));
}

OptimizeResponse optimize_result(const support::JsonObject& object) {
  OptimizeResponse response;
  response.assignment = object.at("assignment");
  response.energy = number_or_nan(object.at("energy"));
  response.pairwise_similarity = number_or_nan(object.at("pairwise_similarity"));
  response.iterations = static_cast<std::size_t>(object.at("iterations").as_integer());
  response.converged = object.at("converged").as_boolean();
  if (const support::Json* truncated = object.find("truncated")) {
    response.truncated = truncated->as_boolean();
  }
  response.solve_seconds = object.at("solve_seconds").as_double();
  response.cached = object.at("cached").as_boolean();
  return response;
}

support::Json result_to_json(const EvaluateResponse& response) {
  support::JsonObject object;
  object.set("edge_similarity", json_number(response.edge_similarity));
  object.set("average_similarity", json_number(response.average_similarity));
  object.set("normalized_richness", json_number(response.normalized_richness));
  if (response.pair_evaluated) {
    support::JsonObject pair;
    pair.set("d_bn", json_number(response.d_bn));
    pair.set("log10_p_with", json_number(response.log10_p_with));
    pair.set("exploit_count", response.exploit_count
                                  ? support::Json(*response.exploit_count)
                                  : support::Json(nullptr));
    pair.set("mttc_runs", response.mttc_runs);
    pair.set("mttc_mean", json_number(response.mttc_mean));
    pair.set("mttc_uncensored_mean", json_number(response.mttc_uncensored_mean));
    pair.set("mttc_censored", response.mttc_censored);
    object.set("pair", std::move(pair));
  }
  object.set("cached", response.cached);
  return support::Json(std::move(object));
}

EvaluateResponse evaluate_result(const support::JsonObject& object) {
  EvaluateResponse response;
  response.edge_similarity = number_or_nan(object.at("edge_similarity"));
  response.average_similarity = number_or_nan(object.at("average_similarity"));
  response.normalized_richness = number_or_nan(object.at("normalized_richness"));
  if (const support::Json* pair_json = object.find("pair")) {
    const support::JsonObject& pair = pair_json->as_object();
    response.pair_evaluated = true;
    response.d_bn = number_or_nan(pair.at("d_bn"));
    response.log10_p_with = number_or_nan(pair.at("log10_p_with"));
    if (!pair.at("exploit_count").is_null()) {
      response.exploit_count = static_cast<std::size_t>(pair.at("exploit_count").as_integer());
    }
    response.mttc_runs = static_cast<std::size_t>(pair.at("mttc_runs").as_integer());
    response.mttc_mean = number_or_nan(pair.at("mttc_mean"));
    response.mttc_uncensored_mean = number_or_nan(pair.at("mttc_uncensored_mean"));
    response.mttc_censored = static_cast<std::size_t>(pair.at("mttc_censored").as_integer());
  }
  response.cached = object.at("cached").as_boolean();
  return response;
}

support::Json result_to_json(const ReportResponse& response) {
  support::JsonObject object;
  object.set("text", support::Json(response.text));
  object.set("cached", response.cached);
  return support::Json(std::move(object));
}

ReportResponse report_result(const support::JsonObject& object) {
  ReportResponse response;
  response.text = object.at("text").as_string();
  response.cached = object.at("cached").as_boolean();
  return response;
}

support::Json result_to_json(const SimilarityResponse& response) {
  support::JsonArray pairs;
  for (const SimilarityResponse::Pair& pair : response.pairs) {
    support::JsonObject entry;
    entry.set("a", support::Json(pair.a));
    entry.set("b", support::Json(pair.b));
    entry.set("similarity", json_number(pair.similarity));
    entry.set("shared", pair.shared);
    entry.set("count_a", pair.count_a);
    entry.set("count_b", pair.count_b);
    pairs.emplace_back(std::move(entry));
  }
  support::JsonObject object;
  object.set("pairs", support::Json(std::move(pairs)));
  object.set("cached", response.cached);
  return support::Json(std::move(object));
}

SimilarityResponse similarity_result(const support::JsonObject& object) {
  SimilarityResponse response;
  for (const support::Json& entry_json : object.at("pairs").as_array()) {
    const support::JsonObject& entry = entry_json.as_object();
    SimilarityResponse::Pair pair;
    pair.a = entry.at("a").as_string();
    pair.b = entry.at("b").as_string();
    pair.similarity = number_or_nan(entry.at("similarity"));
    pair.shared = static_cast<std::size_t>(entry.at("shared").as_integer());
    pair.count_a = static_cast<std::size_t>(entry.at("count_a").as_integer());
    pair.count_b = static_cast<std::size_t>(entry.at("count_b").as_integer());
    response.pairs.push_back(std::move(pair));
  }
  response.cached = object.at("cached").as_boolean();
  return response;
}

support::Json result_to_json(BatchResponse response) {
  support::JsonObject object;
  object.set("report", std::move(response.report));
  object.set("csv", support::Json(response.csv));
  object.set("cells", response.cells);
  object.set("failed", response.failed);
  object.set("cached", response.cached);
  return support::Json(std::move(object));
}

BatchResponse batch_result(const support::JsonObject& object) {
  BatchResponse response;
  response.report = object.at("report");
  response.csv = object.at("csv").as_string();
  response.cells = static_cast<std::size_t>(object.at("cells").as_integer());
  response.failed = static_cast<std::size_t>(object.at("failed").as_integer());
  response.cached = object.at("cached").as_boolean();
  return response;
}

support::Json result_to_json(const MetricResponse& response) {
  support::JsonObject object;
  object.set("d_bn", json_number(response.d_bn));
  object.set("p_with", json_number(response.p_with));
  object.set("p_without", json_number(response.p_without));
  object.set("cached", response.cached);
  return support::Json(std::move(object));
}

MetricResponse metric_result(const support::JsonObject& object) {
  MetricResponse response;
  response.d_bn = number_or_nan(object.at("d_bn"));
  response.p_with = number_or_nan(object.at("p_with"));
  response.p_without = number_or_nan(object.at("p_without"));
  response.cached = object.at("cached").as_boolean();
  return response;
}

support::Json result_to_json(const StatusResponse& response) {
  support::JsonObject requests;
  requests.set("total", response.requests_total);
  requests.set("failed", response.requests_failed);
  requests.set("rejected", response.requests_rejected);
  requests.set("admitted", response.requests_admitted);
  requests.set("deadline", response.requests_deadline);

  support::JsonObject caches;
  caches.set("model", counters_to_json(response.model_cache));
  caches.set("solve", counters_to_json(response.solve_cache));
  caches.set("eval", counters_to_json(response.eval_cache));
  caches.set("batch", counters_to_json(response.batch_cache));

  support::JsonObject object;
  object.set("protocol", response.protocol);
  object.set("server", support::Json(response.server));
  object.set("uptime_seconds", response.uptime_seconds);
  object.set("requests", std::move(requests));
  object.set("in_flight", response.in_flight);
  object.set("queued", response.queued);
  object.set("solve_seconds_total", response.solve_seconds_total);
  object.set("batch_wall_seconds_total", response.batch_wall_seconds_total);
  object.set("stage_stats", std::move(caches));
  object.set("documents", documents_to_json(response.documents));
  object.set("batch_stage_stats", response.batch_stages.to_json());
  return support::Json(std::move(object));
}

StatusResponse status_result(const support::JsonObject& object) {
  StatusResponse response;
  response.protocol = object.at("protocol").as_integer();
  response.server = object.at("server").as_string();
  response.uptime_seconds = object.at("uptime_seconds").as_double();
  const support::JsonObject& requests = object.at("requests").as_object();
  response.requests_total = static_cast<std::size_t>(requests.at("total").as_integer());
  response.requests_failed = static_cast<std::size_t>(requests.at("failed").as_integer());
  response.requests_rejected = static_cast<std::size_t>(requests.at("rejected").as_integer());
  response.requests_admitted = static_cast<std::size_t>(requests.at("admitted").as_integer());
  response.requests_deadline = static_cast<std::size_t>(requests.at("deadline").as_integer());
  response.in_flight = static_cast<std::size_t>(object.at("in_flight").as_integer());
  response.queued = static_cast<std::size_t>(object.at("queued").as_integer());
  response.solve_seconds_total = object.at("solve_seconds_total").as_double();
  response.batch_wall_seconds_total = object.at("batch_wall_seconds_total").as_double();
  const support::JsonObject& caches = object.at("stage_stats").as_object();
  response.model_cache = counters_from_json(caches.at("model"));
  response.solve_cache = counters_from_json(caches.at("solve"));
  response.eval_cache = counters_from_json(caches.at("eval"));
  response.batch_cache = counters_from_json(caches.at("batch"));
  response.documents = documents_from_json(object.at("documents"));
  response.batch_stages = stage_stats_from_json(object.at("batch_stage_stats"));
  return response;
}

support::Json result_to_json(const VersionResponse& response) {
  support::JsonObject object;
  object.set("protocol", response.protocol);
  object.set("server", support::Json(response.server));
  object.set("requests", strings_to_json(response.requests));
  object.set("solvers", strings_to_json(response.solvers));
  object.set("constraint_recipes", strings_to_json(response.constraint_recipes));
  return support::Json(std::move(object));
}

VersionResponse version_result(const support::JsonObject& object) {
  VersionResponse response;
  response.protocol = object.at("protocol").as_integer();
  response.server = object.at("server").as_string();
  response.requests = strings_from_json(object.at("requests"));
  response.solvers = strings_from_json(object.at("solvers"));
  response.constraint_recipes = strings_from_json(object.at("constraint_recipes"));
  return response;
}

/// `version` is the envelope's "icsdivd" field, null when absent.
void check_protocol(const support::Json* version) {
  if (version != nullptr && version->as_integer() != kProtocolVersion) {
    throw InvalidArgument("unsupported protocol version " + std::to_string(version->as_integer()) +
                          " (this server speaks " + std::to_string(kProtocolVersion) + ")");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Envelopes.

std::string_view request_name(const Request& request) noexcept {
  struct Namer {
    std::string_view operator()(const OptimizeRequest&) const { return "optimize"; }
    std::string_view operator()(const EvaluateRequest&) const { return "evaluate"; }
    std::string_view operator()(const ReportRequest&) const { return "report"; }
    std::string_view operator()(const SimilarityRequest&) const { return "similarity"; }
    std::string_view operator()(const BatchRequest&) const { return "batch"; }
    std::string_view operator()(const MetricRequest&) const { return "metric"; }
    std::string_view operator()(const StatusRequest&) const { return "status"; }
    std::string_view operator()(const VersionRequest&) const { return "version"; }
  };
  return std::visit(Namer{}, request);
}

std::vector<std::string> request_names() {
  return {"optimize", "evaluate", "report", "similarity",
          "batch",    "metric",   "status", "version"};
}

support::Json request_to_wire(const Request& request) {
  support::JsonObject object;
  object.set("icsdivd", kProtocolVersion);
  object.set("request", support::Json(request_name(request)));
  std::visit([&object](const auto& typed) { fields_to_wire(typed, object); }, request);
  return support::Json(std::move(object));
}

Request request_from_frame(std::string frame, DocumentTable* documents) {
  // The views Json::scan returns point into the shared copy, which the
  // adopted documents keep alive.
  const auto text = std::make_shared<std::string>(std::move(frame));
  std::vector<TableMatch> matches;
  support::JsonSkip skip;
  if (documents != nullptr) {
    skip = [documents, &matches](std::string_view key, std::string_view rest) -> std::size_t {
      if (!is_document_key(key)) return 0;
      std::optional<Document> found = documents->find(rest);
      if (!found) return 0;
      const std::size_t size = found->text().size();
      matches.push_back({rest.data(), std::move(*found)});
      return size;
    };
  }
  support::JsonScan scan = support::Json::scan(*text, skip);
  if (!scan.canonical) {
    matches.clear();
    *text = support::Json::parse(*text).dump();
    scan = support::Json::scan(*text, skip);
  }
  if (!scan.object) throw InvalidArgument("request must be a JSON object");
  const Fields fields(text, std::move(scan.members), std::move(matches), documents);
  const std::optional<support::Json> version = fields.find("icsdivd");
  check_protocol(version ? &*version : nullptr);
  const std::string name = fields.required("request", "request envelope").as_string();
  if (name == "optimize") return optimize_from_wire(fields);
  if (name == "evaluate") return evaluate_from_wire(fields);
  if (name == "report") return report_from_wire(fields);
  if (name == "similarity") return similarity_from_wire(fields);
  if (name == "batch") return batch_from_wire(fields);
  if (name == "metric") return metric_from_wire(fields);
  if (name == "status") return status_from_wire(fields);
  if (name == "version") return version_from_wire(fields);
  throw InvalidArgument("unknown request: " + name);
}

Request request_from_wire(const support::Json& wire) { return request_from_frame(wire.dump()); }

std::string_view response_name(const Response& response) noexcept {
  struct Namer {
    std::string_view operator()(const OptimizeResponse&) const { return "optimize"; }
    std::string_view operator()(const EvaluateResponse&) const { return "evaluate"; }
    std::string_view operator()(const ReportResponse&) const { return "report"; }
    std::string_view operator()(const SimilarityResponse&) const { return "similarity"; }
    std::string_view operator()(const BatchResponse&) const { return "batch"; }
    std::string_view operator()(const MetricResponse&) const { return "metric"; }
    std::string_view operator()(const StatusResponse&) const { return "status"; }
    std::string_view operator()(const VersionResponse&) const { return "version"; }
  };
  return std::visit(Namer{}, response);
}

support::Json response_to_wire(Response response) {
  support::JsonObject object;
  object.set("icsdivd", kProtocolVersion);
  object.set("status", support::Json(status_code_name(StatusCode::Ok)));
  object.set("response", support::Json(response_name(response)));
  object.set("result",
             std::visit([](auto& typed) { return result_to_json(std::move(typed)); }, response));
  return support::Json(std::move(object));
}

support::Json error_to_wire(const ErrorBody& body) {
  support::JsonObject object;
  object.set("icsdivd", kProtocolVersion);
  object.set("status", support::Json(status_code_name(body.code)));
  object.set("error", body.to_json());
  return support::Json(std::move(object));
}

Response response_from_wire(const support::Json& wire) {
  if (!wire.is_object()) throw ParseError("response must be a JSON object");
  const support::JsonObject& object = wire.as_object();
  check_protocol(object.find("icsdivd"));
  const std::string& status = required_field(object, "status", "response envelope").as_string();
  if (status != status_code_name(StatusCode::Ok)) {
    throw_error_body(ErrorBody::from_json(required_field(object, "error", "error envelope")));
  }
  const std::string& name = required_field(object, "response", "response envelope").as_string();
  const support::JsonObject& result =
      required_field(object, "result", "response envelope").as_object();
  if (name == "optimize") return optimize_result(result);
  if (name == "evaluate") return evaluate_result(result);
  if (name == "report") return report_result(result);
  if (name == "similarity") return similarity_result(result);
  if (name == "batch") return batch_result(result);
  if (name == "metric") return metric_result(result);
  if (name == "status") return status_result(result);
  if (name == "version") return version_result(result);
  throw ParseError("unknown response: " + name);
}

}  // namespace icsdiv::api
