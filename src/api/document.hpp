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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/artifact_cache.hpp"
#include "support/annotations.hpp"
#include "support/json.hpp"
#include "support/mutex.hpp"

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
  /// adopt() with the digest of `text` already known (no second hash).
  [[nodiscard]] static Document adopt(std::shared_ptr<const std::string> owner,
                                      std::string_view text, const runner::ArtifactKey& digest);

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

/// What a DocumentTable has done; the `status` reply's "documents" block.
struct DocumentTableStats {
  std::size_t hits = 0;     ///< decoded documents adopted from the table
  std::size_t misses = 0;   ///< decoded documents that were scanned in full
  std::size_t evicted = 0;  ///< entries dropped to stay within the bounds
  std::size_t entries = 0;  ///< texts held now
  std::size_t bytes = 0;    ///< text bytes held now
};

/// A bounded table of request documents that a full scan accepted
/// (DESIGN.md §10).  request_from_frame consults it at each top-level
/// document value: when the frame's bytes there begin with an interned
/// text, the scan skips the value and the document adopts the interned
/// text and digest.  Each entry holds one canonical object or array text,
/// copied out of its frame, plus its digest; the table never holds a DOM.
/// Entries are found by a fingerprint over a fixed sample of bytes and
/// confirmed by a full byte comparison, at most kMaxCompares per lookup.
/// Least-recently-used entries are evicted beyond either bound.
/// Thread-safe: the daemon's connection threads share one table.
class DocumentTable {
 public:
  /// Full byte comparisons one lookup may spend on fingerprint matches.
  static constexpr std::size_t kMaxCompares = 2;

  DocumentTable(std::size_t max_entries, std::size_t max_bytes);

  /// The interned document whose text `rest` begins with, if any.  The
  /// returned document shares the entry's text but not its state, so a
  /// DOM built from it is never retained here.
  [[nodiscard]] std::optional<Document> find(std::string_view rest);

  /// Counts a decoded document that find() produced.
  void count_hit();

  /// Counts a decoded document that was scanned in full, and interns a
  /// copy of its text (objects and arrays within the byte bound only).
  void intern(const Document& document);

  [[nodiscard]] DocumentTableStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> text;
    runner::ArtifactKey digest;
    std::uint64_t fingerprint = 0;
    std::uint64_t last_used = 0;
  };

  void evict_locked() ICSDIV_REQUIRES(mutex_);

  std::size_t max_entries_;  ///< immutable after construction
  std::size_t max_bytes_;    ///< immutable after construction
  mutable support::Mutex mutex_;
  std::vector<Entry> entries_ ICSDIV_GUARDED_BY(mutex_);
  DocumentTableStats stats_ ICSDIV_GUARDED_BY(mutex_);
  std::uint64_t tick_ ICSDIV_GUARDED_BY(mutex_) = 0;
};

}  // namespace icsdiv::api
