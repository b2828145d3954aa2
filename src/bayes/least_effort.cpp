#include "bayes/least_effort.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>

namespace icsdiv::bayes {

namespace {

using Mask = std::uint32_t;

constexpr std::uint32_t kNoState = std::numeric_limits<std::uint32_t>::max();

/// Pops between two cancellation polls.
constexpr std::size_t kPollPops = 4096;

/// A discovered (host, exploited-product mask) state and the state it was
/// first reached from.  Its cost is popcount(mask), so a state is final on
/// discovery: Dijkstra never relaxes it again.
struct SearchState {
  core::HostId host;
  Mask mask;
  std::uint32_t parent;
};

/// Queue entry; the heap orders by cost alone.
struct Entry {
  std::uint32_t cost;
  std::uint32_t state;

  friend bool operator>(const Entry& a, const Entry& b) { return a.cost > b.cost; }
};

/// Every discovered state, densely numbered in discovery order, plus a
/// linear-probing index of state numbers keyed by (host, mask) that keeps
/// its load at most 1/2 — 12 bytes per state and 8–16 bytes of index.
class StateStore {
 public:
  StateStore() { rehash(1024); }

  [[nodiscard]] const SearchState& operator[](std::uint32_t id) const { return states_[id]; }

  /// Records (host, mask) reached from `parent`; false if already known.
  bool add(core::HostId host, Mask mask, std::uint32_t parent) {
    std::size_t i = home(host, mask);
    for (; slots_[i] != kNoState; i = (i + 1) & mask_) {
      const SearchState& known = states_[slots_[i]];
      if (known.host == host && known.mask == mask) return false;
    }
    slots_[i] = static_cast<std::uint32_t>(states_.size());
    states_.push_back(SearchState{host, mask, parent});
    if (2 * states_.size() > slots_.size()) rehash(2 * slots_.size());
    return true;
  }

  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(states_.size()); }

 private:
  [[nodiscard]] std::size_t home(core::HostId host, Mask mask) const {
    const std::uint64_t key = (static_cast<std::uint64_t>(host) << 32) | mask;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, kNoState);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (std::uint32_t id = 0; id < states_.size(); ++id) {
      std::size_t i = home(states_[id].host, states_[id].mask);
      while (slots_[i] != kNoState) i = (i + 1) & mask_;
      slots_[i] = id;
    }
  }

  std::vector<SearchState> states_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace

LeastEffortResult least_attack_effort(const core::Assignment& assignment, core::HostId entry,
                                      core::HostId target, std::size_t max_distinct_products,
                                      const support::CancelToken& cancel) {
  const core::Network& network = assignment.network();
  require(entry < network.host_count() && target < network.host_count(), "least_attack_effort",
          "unknown entry/target host");
  require(max_distinct_products <= 31, "least_attack_effort",
          "mask width limited to 31 products");

  // Dense re-indexing of the products actually assigned anywhere, in order
  // of first appearance.
  std::vector<std::uint32_t> bit_of(network.catalog().product_count(), kNoState);
  std::vector<core::ProductId> product_of_bit;
  for (core::HostId host = 0; host < network.host_count(); ++host) {
    for (const core::ServiceInstance& instance : network.services_of(host)) {
      const auto product = assignment.product_of(host, instance.service);
      if (product && bit_of[*product] == kNoState) {
        bit_of[*product] = static_cast<std::uint32_t>(product_of_bit.size());
        product_of_bit.push_back(*product);
      }
    }
  }
  if (product_of_bit.size() > max_distinct_products) {
    throw Infeasible("least_attack_effort: deployment uses " +
                     std::to_string(product_of_bit.size()) +
                     " distinct products, above the exact-search limit of " +
                     std::to_string(max_distinct_products));
  }

  // Per host (CSR): the bitmask options to compromise it, one bit per
  // product the attacker may choose to exploit.
  std::vector<std::uint32_t> option_offsets(network.host_count() + 1, 0);
  std::vector<Mask> options;
  for (core::HostId host = 0; host < network.host_count(); ++host) {
    for (const core::ServiceInstance& instance : network.services_of(host)) {
      if (const auto product = assignment.product_of(host, instance.service)) {
        options.push_back(Mask{1} << bit_of[*product]);
      }
    }
    option_offsets[host + 1] = static_cast<std::uint32_t>(options.size());
  }

  LeastEffortResult result;
  if (entry == target) {
    result.exploit_count = 0;
    result.host_order.push_back(entry);
    return result;
  }

  // Dijkstra over (host, mask); cost = popcount(mask).  State 0 is the
  // entry with nothing exploited; parent links reconstruct a witness.
  StateStore states;
  states.add(entry, 0, kNoState);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  queue.push(Entry{0, 0});

  for (std::size_t pops = 0; !queue.empty(); ++pops) {
    if (pops % kPollPops == 0) cancel.check("bayes.least_effort");
    const Entry top = queue.top();
    queue.pop();
    const SearchState state = states[top.state];

    if (state.host == target) {
      result.exploit_count = top.cost;
      for (std::size_t bit = 0; bit < product_of_bit.size(); ++bit) {
        if (state.mask & (Mask{1} << bit)) result.exploited_products.push_back(product_of_bit[bit]);
      }
      for (std::uint32_t id = top.state; id != 0; id = states[id].parent) {
        result.host_order.push_back(states[id].host);
      }
      result.host_order.push_back(entry);
      std::reverse(result.host_order.begin(), result.host_order.end());
      return result;
    }

    for (const graph::VertexId neighbor : network.topology().neighbors(state.host)) {
      // A host without exploitable software (a PLC) has no options.
      for (std::uint32_t k = option_offsets[neighbor]; k < option_offsets[neighbor + 1]; ++k) {
        const Mask mask = state.mask | options[k];
        if (!states.add(neighbor, mask, top.state)) continue;
        queue.push(Entry{static_cast<std::uint32_t>(std::popcount(mask)), states.size() - 1});
      }
    }
  }
  return result;  // target unreachable: exploit_count stays nullopt
}

}  // namespace icsdiv::bayes
