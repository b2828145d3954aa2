// Least attacking effort — the adversarial-perspective evaluation the
// paper lists as future work (§IX), following Zhang et al.'s d2 metric
// [16] and Wang et al.'s k-zero-day safety [15]: the minimum number of
// *distinct product exploits* an attacker must develop to compromise the
// target starting from the entry host.
//
// Model: compromising a host requires an exploit for (at least) one of the
// products it runs; exploits are reusable on every host running the same
// product (that is exactly what mono-cultures give away).  The entry host
// is assumed compromised through out-of-band means (e.g. the infected USB
// stick of the Stuxnet narrative).
//
// The computation is exact: Dijkstra over (host, exploited-product-set)
// states, feasible because a deployment uses a handful of distinct
// products (the case study assigns ≤ 24).  A mono-culture collapses to
// 1–2 exploits; the TRW-S optimum forces several times more — the
// "attacker must craft a unique exploit per hop" argument of §II.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/assignment.hpp"
#include "support/cancel.hpp"

namespace icsdiv::bayes {

struct LeastEffortResult {
  /// Minimum number of distinct product exploits; nullopt if unreachable.
  std::optional<std::size_t> exploit_count;
  /// One witness: the product ids the attacker develops exploits for.
  std::vector<core::ProductId> exploited_products;
  /// A compromise order of hosts realising the witness (entry first).
  std::vector<core::HostId> host_order;
};

/// Exact-search limit on distinct products (the state space is 2^distinct).
inline constexpr std::size_t kMaxDistinctProducts = 24;

/// Exact minimum-effort computation.  Throws Infeasible when the
/// assignment uses more than `max_distinct_products` distinct products.
/// `cancel` is polled every few thousand search steps (site
/// "bayes.least_effort"); expiry throws DeadlineExceededError /
/// CancelledError.
[[nodiscard]] LeastEffortResult least_attack_effort(
    const core::Assignment& assignment, core::HostId entry, core::HostId target,
    std::size_t max_distinct_products = kMaxDistinctProducts,
    const support::CancelToken& cancel = {});

}  // namespace icsdiv::bayes
