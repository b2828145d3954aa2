// Differential test of Json::scan against Json::parse: on every input the
// build-nothing scan must accept exactly what the parser accepts, fail
// with the same ParseError (message, line, column), report "canonical"
// exactly when parse(text).dump() == text, and return the exact text of
// each top-level member.  Inputs: the example grids, the wire encoding of
// every request kind, and a deterministic mutation corpus over both.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "core/assignment.hpp"
#include "core/serialization.hpp"
#include "nvd/database.hpp"
#include "runner/workload.hpp"
#include "support/json.hpp"

namespace icsdiv::support {
namespace {

struct Outcome {
  std::optional<std::string> error;  ///< what(), which carries line and column
  std::size_t line = 0;
  std::size_t column = 0;
};

/// Runs both modes on `text` and checks they agree; returns the scan when
/// both accepted it.
std::optional<JsonScan> check(const std::string& text) {
  Outcome parsed;
  Outcome scanned;
  std::optional<Json> dom;
  std::optional<JsonScan> scan;
  try {
    dom = Json::parse(text);
  } catch (const ParseError& e) {
    parsed = {e.what(), e.line(), e.column()};
  }
  try {
    scan = Json::scan(text);
  } catch (const ParseError& e) {
    scanned = {e.what(), e.line(), e.column()};
  }
  EXPECT_EQ(parsed.error, scanned.error) << text;
  EXPECT_EQ(parsed.line, scanned.line) << text;
  EXPECT_EQ(parsed.column, scanned.column) << text;
  if (!dom || !scan) return std::nullopt;

  const std::string dumped = dom->dump();
  EXPECT_EQ(scan->canonical, dumped == text) << text;
  EXPECT_EQ(scan->object, dom->is_object()) << text;
  if (dom->is_object()) {
    const JsonObject& object = dom->as_object();
    std::vector<std::string> keys;
    for (const JsonScan::Member& member : scan->members) {
      keys.push_back(member.key);
      // Duplicate keys keep the last value, so only the last occurrence
      // of a key matches the DOM.
      const bool last = std::none_of(
          scan->members.begin() + (&member - scan->members.data()) + 1, scan->members.end(),
          [&](const JsonScan::Member& later) { return later.key == member.key; });
      if (!last) continue;
      EXPECT_EQ(Json::parse(member.value).dump(), object.at(member.key).dump()) << text;
      if (scan->canonical) {
        EXPECT_EQ(member.value, object.at(member.key).dump()) << text;
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<std::string> dom_keys;
    for (const auto& [key, value] : object) dom_keys.push_back(key);
    std::sort(dom_keys.begin(), dom_keys.end());
    EXPECT_EQ(keys, dom_keys) << text;
  } else {
    EXPECT_TRUE(scan->members.empty()) << text;
  }
  return scan;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> example_grids() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(ICSDIV_EXAMPLES_DIR) / "grids")) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(read_file(path));
  return texts;
}

/// One wire frame per request kind, over a small real deployment.
std::vector<std::string> request_frames() {
  runner::WorkloadParams params;
  params.hosts = 6;
  params.average_degree = 2;
  params.services = 2;
  params.products_per_service = 3;
  params.seed = 11;
  const runner::WorkloadInstance workload = runner::make_workload(params);
  const Json catalog = core::catalog_to_json(*workload.catalog);
  const Json network = core::network_to_json(*workload.network);
  core::Assignment assignment(*workload.network);
  const Json assignment_json = assignment.to_json();
  nvd::VulnerabilityDatabase feed;
  nvd::CveEntry entry;
  entry.id = "CVE-2010-0001";
  entry.year = 2010;
  entry.cvss = 7.5;
  entry.affected = {nvd::CpeUri::parse("cpe:/o:acme:alpha"),
                    nvd::CpeUri::parse("cpe:/o:acme:beta")};
  feed.add(entry);
  const Json grid = Json::parse(R"({"name":"g","hosts":[8,16],"tolerance":1e-6})");

  std::vector<api::Request> requests;
  requests.emplace_back(api::OptimizeRequest{catalog, network, "icm", 7, 250});
  requests.emplace_back(api::EvaluateRequest{catalog, network, assignment_json, "h0", "h5", 0});
  requests.emplace_back(api::ReportRequest{catalog, network, assignment_json, 0});
  requests.emplace_back(
      api::SimilarityRequest{feed.to_json(), {"cpe:/o:acme:alpha", "cpe:/o:acme:beta"}, 0});
  requests.emplace_back(api::BatchRequest{grid, 2, 0, ""});
  requests.emplace_back(api::MetricRequest{catalog, network, assignment_json, "h0", "h5", 0});
  requests.emplace_back(api::StatusRequest{});
  requests.emplace_back(api::VersionRequest{});
  EXPECT_EQ(requests.size(), api::request_names().size());
  std::vector<std::string> frames;
  for (const api::Request& request : requests) {
    const Json wire = api::request_to_wire(request);
    frames.push_back(wire.dump());
    frames.push_back(wire.dump_pretty());
  }
  return frames;
}

/// Deterministic mutations of `text` at a spread of positions.
std::vector<std::string> mutations(const std::string& text, std::size_t positions) {
  const std::vector<std::string> inserts = {
      " ", "\n", "\t", "\\/", "\\u0041", "\\u001F", "\\u001f", "\\u000a", "\\n", "1.0", "1e0",
      "-0", "1E2", "\"", ",", "{", "[", "]", "}", ":", "\\ud83d\\ude00", "\\ud83d", "\x01"};
  std::vector<std::string> out;
  const std::size_t step = std::max<std::size_t>(1, text.size() / positions);
  for (std::size_t at = 0; at <= text.size(); at += step) {
    out.push_back(text.substr(0, at));  // truncation
    for (const std::string& insert : inserts) {
      out.push_back(text.substr(0, at) + insert + text.substr(at));
    }
    if (at < text.size()) {
      std::string removed = text;
      removed.erase(at, 1);
      out.push_back(removed);
    }
  }
  return out;
}

TEST(JsonScan, AgreesWithParseOnExampleGrids) {
  const std::vector<std::string> grids = example_grids();
  ASSERT_FALSE(grids.empty());
  for (const std::string& text : grids) {
    const std::optional<JsonScan> pretty = check(text);
    ASSERT_TRUE(pretty.has_value());
    EXPECT_FALSE(pretty->canonical);  // the examples are indented
    const std::optional<JsonScan> compact = check(Json::parse(text).dump());
    ASSERT_TRUE(compact.has_value());
    EXPECT_TRUE(compact->canonical);
    for (const std::string& mutated : mutations(text, 30)) (void)check(mutated);
  }
}

TEST(JsonScan, AgreesWithParseOnEveryRequestKind) {
  for (const std::string& frame : request_frames()) {
    ASSERT_TRUE(check(frame).has_value()) << frame;
    for (const std::string& mutated : mutations(frame, 20)) (void)check(mutated);
  }
}

TEST(JsonScan, CanonicalFormRules) {
  const std::vector<std::pair<std::string, bool>> cases = {
      {R"({"a":1,"b":[true,false,null],"c":"x"})", true},
      {R"({"a": 1})", false},     // whitespace between tokens
      {R"( {"a":1})", false},     // leading whitespace
      {R"({"a":1} )", false},     // trailing whitespace
      {R"("a\/b")", false},       // dump() writes '/' bare
      {R"("\u0041")", false},  // dump() writes 'A' bare
      {R"("\u001F")", false},     // dump() writes lowercase hex
      {R"("\u001f")", true},
      {R"("\u000a")", false},     // dump() writes \n
      {R"("\n\t\"\\\b\f\r")", true},
      {R"("\ud83d\ude00")", false},  // dump() writes the UTF-8 bytes
      {"\"\xF0\x9F\x98\x80\"", true},
      {"1.0", false},
      {"1e0", false},
      {"-0", false},
      {"1E2", false},
      {"-0.0", false},
      {"0", true},
      {"-7", true},
      {"1.5", true},
      {"1e+20", true},
      {"1e-07", true},
      {"99999999999999999999", false},  // overflows to a double
      {R"({"a":1,"a":2})", false},      // duplicate key
      {R"({"a":{"k":1},"b":{"k":2}})", true},
      {"[]", true},
      {"{}", true},
      {"[ ]", false},
  };
  for (const auto& [text, canonical] : cases) {
    const std::optional<JsonScan> scan = check(text);
    ASSERT_TRUE(scan.has_value()) << text;
    EXPECT_EQ(scan->canonical, canonical) << text;
  }
  // Duplicate detection past the small-object linear scan.
  std::string many = "{";
  for (int i = 0; i < 30; ++i) many += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  EXPECT_TRUE(check(many + R"("last":0})")->canonical);
  EXPECT_FALSE(check(many + R"("k17":0})")->canonical);
}

TEST(JsonScan, MembersAreExactSpans) {
  const std::string text = R"({"icsdivd":1,"request":"optimize","catalog":{"x":[1,2]},"k\n":"v"})";
  const std::optional<JsonScan> scan = check(text);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->members.size(), 4u);
  EXPECT_EQ(scan->members[0].key, "icsdivd");
  EXPECT_EQ(scan->members[0].value, "1");
  EXPECT_EQ(scan->members[1].value, "\"optimize\"");
  EXPECT_EQ(scan->members[2].key, "catalog");
  EXPECT_EQ(scan->members[2].value, R"({"x":[1,2]})");
  EXPECT_EQ(scan->members[3].key, "k\n");  // decoded
}

TEST(JsonScan, DeepNestingFailsIdentically) {
  for (const std::size_t depth : {kMaxJsonDepth - 1, kMaxJsonDepth, kMaxJsonDepth + 1,
                                  std::size_t{100000}}) {
    (void)check(std::string(depth, '[') + std::string(depth, ']'));
    (void)check(std::string(depth, '['));
    std::string objects;
    for (std::size_t i = 0; i < depth; ++i) objects += "{\"a\":";
    (void)check(objects + "1" + std::string(depth, '}'));
  }
  EXPECT_THROW((void)Json::scan(std::string(100000, '[')), ParseError);
}

}  // namespace
}  // namespace icsdiv::support
