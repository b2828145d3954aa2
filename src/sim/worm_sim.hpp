// Agent-based worm propagation simulator — the NetLogo substitute (§VII-C2).
//
// Discrete-tick SI dynamics on the diversified network: every tick, each
// infected host attacks each of its uninfected neighbours once.  The
// attacker picks which exploit to fire across the link:
//
//  * Sophisticated (the paper's default): reconnaissance first — always
//    the channel with the highest success probability.  It never stays
//    silent: `silent_probability` applies to the Uniform strategy only.
//  * Uniform: "when multiple exploits are feasible, attackers evenly
//    choose one to use" (the paper's BN assumption), including the chance
//    to stay silent when `silent_probability` is set.
//
// Channels and probabilities come from bayes::PropagationModel; the
// simulator's default similarity weight is per-*attempt* (an exploit that
// targets a shared vulnerability usually works) while the baseline channel
// stays the slow generic fallback, so mono-cultures fall in a few ticks
// and diversified deployments hold out an order of magnitude longer —
// Table VI's contrast.  Mean-Time-To-Compromise (MTTC) aggregates ticks
// until the target falls over many runs (the paper uses 1 000).
//
// The dynamics run on sim::CompiledPropagation (see compiled.hpp): a CSR
// adjacency with flat per-link channel tables and reusable per-run state
// (a host-mark bitset and the attempt list).  This class is the
// convenient facade — it owns the compiled substrate and provides
// allocating wrappers for one-off runs.
#pragma once

#include "sim/compiled.hpp"

namespace icsdiv::sim {

class WormSimulator {
 public:
  /// Precomputes the compiled propagation tables for `assignment`; the
  /// assignment is only read during construction (a temporary is fine).
  WormSimulator(const core::Assignment& assignment, SimulationParams params)
      : compiled_(assignment, params) {}

  [[nodiscard]] const SimulationParams& params() const noexcept { return compiled_.params(); }

  /// The flat substrate, for callers that manage their own SimState.
  [[nodiscard]] const CompiledPropagation& compiled() const noexcept { return compiled_; }

  /// One simulation run; deterministic given `rng`'s state.
  [[nodiscard]] RunResult run_once(core::HostId entry, core::HostId target,
                                   support::Rng& rng) const;

  /// Scratch-reusing variant for tight Monte-Carlo loops.
  RunResult run_once(core::HostId entry, core::HostId target, support::Rng& rng,
                     SimState& state) const {
    return compiled_.run_once(entry, target, rng, state);
  }

  /// Cumulative infected-host counts per tick for one run (epidemic curve).
  [[nodiscard]] std::vector<std::size_t> epidemic_curve(core::HostId entry, std::size_t ticks,
                                                        support::Rng& rng) const;

  /// MTTC over `runs` independent runs; chunked across the global thread
  /// pool when `parallel` (`threads` caps the chunk count; 0 = pool
  /// width).  Deterministic per-run seeding makes the result bit-identical
  /// for every thread count, the sequential path included.
  [[nodiscard]] MttcResult mttc(core::HostId entry, core::HostId target, std::size_t runs,
                                std::uint64_t seed, bool parallel = true,
                                std::size_t threads = 0) const {
    return compiled_.mttc(entry, target, runs, seed, parallel, threads);
  }

 private:
  CompiledPropagation compiled_;
};

}  // namespace icsdiv::sim
