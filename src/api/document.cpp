#include "api/document.hpp"

#include <mutex>

namespace icsdiv::api {

struct Document::State {
  State(std::shared_ptr<const std::string> owner_in, std::string_view text_in)
      : owner(std::move(owner_in)), text(text_in) {
    runner::KeyHasher hasher;
    hasher.mix(text);
    digest = hasher.key();
  }

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
  auto state = std::make_shared<State>(text, *text);
  std::call_once(state->built, [&] { state->dom = std::move(json); });
  state_ = std::move(state);
}

Document Document::adopt(std::shared_ptr<const std::string> owner, std::string_view text) {
  return Document(std::make_shared<const State>(std::move(owner), text));
}

std::string_view Document::text() const noexcept { return state_->text; }

const runner::ArtifactKey& Document::digest() const noexcept { return state_->digest; }

const support::Json& Document::json() const {
  std::call_once(state_->built, [this] { state_->dom = support::Json::parse(state_->text); });
  return state_->dom;
}

}  // namespace icsdiv::api
