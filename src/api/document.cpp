#include "api/document.hpp"

#include <algorithm>
#include <array>
#include <mutex>

namespace icsdiv::api {

namespace {

runner::ArtifactKey digest_of(std::string_view text) {
  runner::KeyHasher hasher;
  hasher.mix(text);
  return hasher.key();
}

/// FNV-1a over the length of `text` and a fixed sample of its bytes: the
/// first and last kEdge, and kStrides more spread evenly between.  Cheap
/// at any length, so a lookup can afford one per entry.
std::uint64_t fingerprint(std::string_view text) {
  constexpr std::size_t kEdge = 16;
  constexpr std::size_t kStrides = 32;
  std::uint64_t hash = 0xcbf29ce484222325ULL ^ text.size();
  const auto mix = [&hash](char byte) {
    hash = (hash ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  };
  const std::size_t size = text.size();
  const std::size_t edge = std::min(kEdge, size);
  for (std::size_t i = 0; i < edge; ++i) mix(text[i]);
  for (std::size_t i = size - edge; i < size; ++i) mix(text[i]);
  for (std::size_t i = 0; i < kStrides && size != 0; ++i) mix(text[i * size / kStrides]);
  return hash;
}

}  // namespace

struct Document::State {
  State(std::shared_ptr<const std::string> owner_in, std::string_view text_in,
        const runner::ArtifactKey& digest_in)
      : owner(std::move(owner_in)), text(text_in), digest(digest_in) {}

  std::shared_ptr<const std::string> owner;
  std::string_view text;
  runner::ArtifactKey digest;
  mutable std::once_flag built;
  mutable support::Json dom;
};

Document::Document() {
  static const Document null(support::Json{});
  state_ = null.state_;
}

Document::Document(const support::Json& json) : Document(support::Json(json)) {}

Document::Document(support::Json&& json) {
  auto text = std::make_shared<const std::string>(json.dump());
  auto state = std::make_shared<State>(text, *text, digest_of(*text));
  std::call_once(state->built, [&] { state->dom = std::move(json); });
  state_ = std::move(state);
}

Document Document::adopt(std::shared_ptr<const std::string> owner, std::string_view text) {
  return adopt(std::move(owner), text, digest_of(text));
}

Document Document::adopt(std::shared_ptr<const std::string> owner, std::string_view text,
                         const runner::ArtifactKey& digest) {
  return Document(std::make_shared<const State>(std::move(owner), text, digest));
}

std::string_view Document::text() const noexcept { return state_->text; }

const runner::ArtifactKey& Document::digest() const noexcept { return state_->digest; }

const support::Json& Document::json() const {
  std::call_once(state_->built, [this] { state_->dom = support::Json::parse(state_->text); });
  return state_->dom;
}

// ---------------------------------------------------------------------------
// DocumentTable.

DocumentTable::DocumentTable(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(std::max<std::size_t>(max_entries, 1)), max_bytes_(max_bytes) {}

std::optional<Document> DocumentTable::find(std::string_view rest) {
  std::array<Entry, kMaxCompares> candidates;
  std::size_t count = 0;
  {
    const support::MutexLock lock(mutex_);
    for (const Entry& entry : entries_) {
      const std::size_t size = entry.text->size();
      if (size > rest.size() || fingerprint(rest.substr(0, size)) != entry.fingerprint) continue;
      candidates[count++] = entry;
      if (count == kMaxCompares) break;
    }
  }
  // Texts are immutable, so the comparisons run outside the lock.
  for (std::size_t i = 0; i < count; ++i) {
    const Entry& candidate = candidates[i];
    if (rest.substr(0, candidate.text->size()) != *candidate.text) continue;
    {
      const support::MutexLock lock(mutex_);
      for (Entry& entry : entries_) {
        if (entry.text == candidate.text) entry.last_used = ++tick_;
      }
    }
    return Document::adopt(candidate.text, *candidate.text, candidate.digest);
  }
  return std::nullopt;
}

void DocumentTable::count_hit() {
  const support::MutexLock lock(mutex_);
  ++stats_.hits;
}

void DocumentTable::intern(const Document& document) {
  const std::string_view text = document.text();
  const bool container = !text.empty() && (text.front() == '{' || text.front() == '[');
  if (!container || text.size() > max_bytes_) {
    const support::MutexLock lock(mutex_);
    ++stats_.misses;
    return;
  }
  // Copied before taking the lock; a racing decode of the same text makes
  // the copy redundant, which the scan below detects.
  Entry entry;
  entry.text = std::make_shared<const std::string>(text);
  entry.digest = document.digest();
  entry.fingerprint = fingerprint(text);
  const support::MutexLock lock(mutex_);
  ++stats_.misses;
  for (Entry& held : entries_) {
    if (held.fingerprint == entry.fingerprint && *held.text == text) {
      held.last_used = ++tick_;
      return;
    }
  }
  entry.last_used = ++tick_;
  stats_.bytes += text.size();
  entries_.push_back(std::move(entry));
  evict_locked();
}

void DocumentTable::evict_locked() {
  while (entries_.size() > max_entries_ || stats_.bytes > max_bytes_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->last_used < victim->last_used) victim = it;
    }
    stats_.bytes -= victim->text->size();
    std::swap(*victim, entries_.back());
    entries_.pop_back();
    ++stats_.evicted;
  }
}

DocumentTableStats DocumentTable::stats() const {
  const support::MutexLock lock(mutex_);
  DocumentTableStats stats = stats_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace icsdiv::api
