// A request document (catalog, network, assignment, feed, grid) as the
// session sees it: canonical text plus a content digest, with the DOM
// built only when a computation reads it (DESIGN.md §10).
//
// The text is byte-equal to `support::Json::dump()` of the document, so
// the digest identifies the content however the client spaced it: a
// pretty-printed frame is normalised once at decode and keys the same
// cache entries as its compact twin.  A document decoded from a daemon
// frame adopts its span of the frame without copying; a cache hit reads
// only the digest and never builds a DOM.
//
// Implicit construction from `support::Json` and implicit conversion to
// `const support::Json&` let callers that hold DOMs (the CLI, tests,
// benchmarks) keep treating request fields as JSON values.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "runner/artifact_cache.hpp"
#include "support/json.hpp"

namespace icsdiv::api {

class Document {
 public:
  /// JSON null.
  Document();
  Document(const support::Json& json);
  Document(support::Json&& json);

  /// Adopts `text`, which must be canonical JSON (Json::scan reported it
  /// so) and must lie inside `*owner`, which the document keeps alive.
  [[nodiscard]] static Document adopt(std::shared_ptr<const std::string> owner,
                                      std::string_view text);

  /// The canonical text, byte-equal to json().dump().
  [[nodiscard]] std::string_view text() const noexcept;
  /// runner::KeyHasher over text(): equal content, equal digest.
  [[nodiscard]] const runner::ArtifactKey& digest() const noexcept;
  /// The DOM; parsed from text() on first use (once, thread-safe).
  [[nodiscard]] const support::Json& json() const;
  operator const support::Json&() const { return json(); }

 private:
  struct State;
  explicit Document(std::shared_ptr<const State> state) : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

}  // namespace icsdiv::api
