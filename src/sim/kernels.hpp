// Worm-simulator tick loops over the flat attempt list (sim/compiled.hpp):
// the once-per-tick compaction and the Sophisticated attacker's draw.
// Both are plain scalar loops — the list is built so that neither needs
// a per-attacker call or a data-dependent branch.
//
// RNG discipline: the xoshiro stream is inherently serial, so the draw
// consumes one rng() step per open link in list order — exactly the words
// the seed-era per-attacker loop consumed, in its order.
#pragma once

#include <cstdint>

#include "support/rng.hpp"
#include "support/simd.hpp"

namespace icsdiv::sim::kernels {

/// Drops, in place and in order, every attempt whose target is marked
/// and, when `kDefender`, every attempt whose source is remediated.
/// Returns the number kept.  Branchless: the mark test is data-random
/// mid-epidemic, and a branchy skip loop mispredicts on it constantly.
template <bool kDefender>
inline std::size_t compact_attempts(std::uint32_t* attempts, std::size_t count,
                                    const std::uint32_t* link_to, const std::uint32_t* link_from,
                                    const std::uint32_t* marked_bits,
                                    const std::uint32_t* remediated_bits) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t link = attempts[i];
    attempts[kept] = link;
    bool open = !support::simd::bit_test(marked_bits, link_to[link]);
    if constexpr (kDefender) open &= !support::simd::bit_test(remediated_bits, link_from[link]);
    kept += open ? 1u : 0u;
  }
  return kept;
}

/// Sophisticated attacker: one acceptance word and one compare per open
/// link; accepted targets compact into `fresh` (a success is too rare to
/// predict, too common to eat the mispredict).  Returns the number of
/// fresh infections; `fresh` needs `count` slots.
inline std::size_t draw_sophisticated(support::Rng& rng, const std::uint32_t* attempts,
                                      std::size_t count, const std::uint32_t* link_to,
                                      const std::uint64_t* thresholds, std::uint32_t* fresh) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t link = attempts[i];
    const std::uint64_t word = rng() >> 11;
    fresh[accepted] = link_to[link];
    accepted += word < thresholds[link] ? 1u : 0u;
  }
  return accepted;
}

}  // namespace icsdiv::sim::kernels
