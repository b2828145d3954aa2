// CompiledPropagation: the flat simulation substrate behind the worm
// simulator (§VII-C2), mirroring mrf::CompiledMrf one pillar over.
//
// The seed-era WormSimulator kept a `vector<vector<DirectedLink>>` whose
// per-link records each embedded their own `vector<double>` of channel
// probabilities — three pointer hops per attack attempt — and every
// Monte-Carlo run allocated two `vector<bool>(host_count)` marks plus the
// active list from scratch.  The compiled layout resolves all of it once
// per (assignment, params):
//
//   * CSR adjacency — `offsets_[host_count+1]` into packed per-link
//     arrays, filled by a stable counting sort over the topology's edge
//     list so per-host link order matches the historical push_back order
//     exactly (both traversal directions of an edge are appended as the
//     edge is scanned).  Attack attempts therefore draw from the RNG in
//     the seed-era order and every run stays bit-identical.  The arrays
//     are struct-of-arrays: the Sophisticated scan touches only
//     `link_to_` + `link_best_threshold_`, keeping the hot loop dense.
//   * Integer acceptance thresholds — every per-attempt probability p is
//     precompiled to ceil(p·2^53), so a Bernoulli draw is one integer
//     compare `(rng() >> 11) < threshold`.  This is *exactly*
//     `Rng::uniform() < p`: uniform() is (x>>11)·2⁻⁵³ and scaling a
//     double by 2⁵³ is exact, so the threshold form accepts precisely the
//     same raw words from the same single RNG step.
//   * Flat channel-threshold pool — each link's uniform-pick table is a
//     contiguous `pick_pool_` slice `[p_avg, channel...]` in CSR link
//     order (`pick_begin_` holds the E+1 prefix offsets), so the Uniform
//     attacker's draw is one indexed load with no branch on the
//     baseline-vs-channel split.
//   * Per-link best table — the Sophisticated attacker's
//     `max(p_avg, channels...)` is precomputed per directed link.
//   * Per-link source — `link_from_`, derived from the offsets whenever the
//     tables are built or loaded (never serialised); the defender's
//     compaction reads it.
//
// The tick runs over a flat *attempt list* kept in SimState: the open
// links of every attacking host, in the order the draws happen.
//
//   * Append — when a host is infected, all of its links go on the end of
//     the list in CSR order (the entry's go in at start_run).
//   * Compact — once per tick, one branchless pass drops every link whose
//     target is marked and, with the defender on, every link whose source
//     has been remediated.  Both drops are permanent: marks and
//     remediation only grow.
//   * Draw — one tight loop over the compacted list.  Sophisticated makes
//     one word and one compare per link; Uniform keeps its conditional
//     silent/pick/accept draws.
//
// Why this is the seed-era stream bit for bit: marks change only at the
// end of a tick (synchronous update).  The attacking hosts are in
// infection order, and they only ever lose members, in order.  So the
// compacted list is exactly the per-attacker frontiers the seed-era loop
// scanned (each attacker's susceptible links in CSR order), joined in
// attacker order, and every RNG word is consumed where it was before.
// A tick whose compacted list is empty ends the run (`RunResult::extinct`):
// no attacker has a susceptible neighbour, so nothing can change again.
// Censoring fields are unchanged (`ticks` still reports the horizon).
//
// Per-run state lives in a reusable SimState: one mark *bit* per host
// (a run boundary is a word-parallel clear of host_count/32 words —
// 12.5 KB at 100k hosts, L1-resident during the scan).  A single mark
// covers both "infected" and "remediated" — every reader only ever asks
// "still susceptible?", which both states answer the same way.  The
// active-host list is kept only with the defender on, where it is the
// detection-roll list; a second bitset records remediated hosts for the
// compaction.  `mttc()` is an allocation-free chunked parallel loop over
// the historical per-run splitmix64 streams.
//
// The adjacency and threshold pools depend only on (assignment, model) —
// not on the attacker strategy, the detection probability or the horizon —
// so they live in their own immutable `PropagationChannels` object that
// any number of `CompiledPropagation` instances (and threads) share via
// `shared_ptr`.  A strategy/detection sweep over one solved assignment
// pays the channel-table build once (the batch engine's attack stage
// plans exactly that sharing).
//
// Thread safety: `PropagationChannels` and `CompiledPropagation` are
// immutable after construction; every const member function is safe to
// call concurrently from any number of threads, provided each caller uses
// its own `SimState` and `Rng` (the only mutable state, always
// caller-supplied).  `mttc()` relies on this internally when it shards
// runs across the global pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bayes/propagation.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace icsdiv::sim {

enum class AttackerStrategy { Sophisticated, Uniform };

struct SimulationParams {
  bayes::PropagationModel model{/*p_avg=*/0.04, /*similarity_weight=*/0.30,
                                /*consider_similarity=*/true};
  AttackerStrategy strategy = AttackerStrategy::Sophisticated;
  /// Chance a Uniform attacker skips an attack opportunity this tick.
  /// Only the Uniform strategy rolls it — Sophisticated models a
  /// reconnaissance-first attacker that always fires its best exploit and
  /// ignores this knob entirely.
  double silent_probability = 0.0;
  /// Censoring horizon per run.
  std::size_t max_ticks = 100'000;
  /// Defender model (§IX's defensive-evaluation extension): each infected
  /// host other than the attacker's entry foothold is detected per tick
  /// with this probability and remediated — cleaned, patched and immune
  /// for the rest of the run.  0 disables the defender (the paper's
  /// setting).  With an active defender the worm can be eradicated before
  /// reaching the target, so MTTC runs may censor at `max_ticks`.
  double detection_probability = 0.0;
  /// Cooperative cancellation, polled between Monte-Carlo runs in mttc().
  /// There is no meaningful partial MTTC estimate, so expiry throws
  /// (DeadlineExceededError / CancelledError) instead of truncating.
  /// Excluded from artifact keys: it never affects results.
  support::CancelToken cancel;
};

struct RunResult {
  bool target_reached = false;
  /// Propagation died out before the horizon: no active host had a
  /// susceptible neighbour left, so no further infection was possible.
  bool extinct = false;
  std::size_t ticks = 0;  ///< tick at which the target fell (or horizon)
  /// Hosts ever infected during the run (the entry included).  Counts a
  /// host even after the defender remediates it — remediation undoes the
  /// infection, not the compromise that happened.
  std::size_t infected_count = 0;
};

struct MttcResult {
  double mean = 0.0;  ///< over all runs, censored runs counted at max_ticks
  /// Mean over the target-reaching runs only — the censoring-bias-free
  /// companion of `mean` (which clamps censored runs to the horizon and
  /// so underestimates the true MTTC).  NaN when every run censored.
  double uncensored_mean = 0.0;
  double std_dev = 0.0;
  double ci95_half_width = 0.0;
  std::size_t runs = 0;
  std::size_t censored = 0;  ///< runs that hit max_ticks without compromise
};

/// Reusable per-thread scratch for simulation runs.  First use sizes the
/// buffers; every following run is a word-parallel bitset clear plus list
/// clears.
struct SimState {
  /// Host-mark bitset (support::simd bit helpers): bit set ⇔ the host was
  /// infected this run (and possibly remediated since) — i.e. no longer
  /// susceptible.  A 100k-host network's marks fit in 12.5 KB.
  std::vector<std::uint32_t> marked;
  /// Defender only: bit set ⇔ the host was remediated this run.
  std::vector<std::uint32_t> remediated;
  /// Defender only: the attacking (infected, not remediated) hosts in
  /// infection order — the detection-roll list.
  std::vector<core::HostId> active;
  /// The attempt list: open links of the attacking hosts in draw order.
  /// Sized to the link count (a link is appended at most once per run);
  /// the logical length is `attempt_count`.
  std::vector<std::uint32_t> attempts;
  std::size_t attempt_count = 0;
  /// Scratch for this tick's new infections (sized to the link count; the
  /// logical length lives inside the tick).
  std::vector<core::HostId> fresh;
  std::size_t ever_infected = 0;
  core::HostId entry = 0;

  /// Starts a run: clears the bitsets (word-parallel; `remediated` only
  /// when `defender`), sizes the link-indexed lists and resets the rest.
  void begin_run(std::size_t host_count, std::size_t link_count, bool defender,
                 core::HostId entry_host);
};

/// The strategy-independent half of a compiled propagation: CSR adjacency
/// plus the per-link channel threshold pools, a pure function of
/// (assignment, PropagationModel).  Immutable after construction and
/// therefore freely shareable across CompiledPropagation instances and
/// threads — cells of a {strategy × detection} sweep reuse one build.
class PropagationChannels {
 public:
  /// Compiles the tables for `assignment` under `model`; the assignment is
  /// only read during construction (a temporary is fine).
  PropagationChannels(const core::Assignment& assignment, const bayes::PropagationModel& model);

  [[nodiscard]] const bayes::PropagationModel& model() const noexcept { return model_; }
  [[nodiscard]] std::size_t host_count() const noexcept { return host_count_; }
  [[nodiscard]] std::size_t link_count() const noexcept { return link_to_.size(); }

  /// Flat relocatable encoding of the compiled tables (support::ByteWriter
  /// format) — the payload the on-disk artifact store persists for the
  /// channels stage.  deserialize() round-trips bit-identically.
  [[nodiscard]] std::string serialize() const;

  /// Rebuilds a channel table from serialize() output.  Throws
  /// InvalidArgument on malformed input (the store checksums records
  /// before decoding, so this indicates a format bug).
  [[nodiscard]] static PropagationChannels deserialize(std::string_view data);

 private:
  friend class CompiledPropagation;

  PropagationChannels() = default;  ///< deserialize() fills the fields

  /// Derives `link_from_` from `offsets_` (construction and deserialize;
  /// the source array is never serialised).
  void index_link_sources();

  bayes::PropagationModel model_;
  std::size_t host_count_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< host_count+1 CSR offsets
  std::vector<core::HostId> link_to_;   ///< per directed link
  std::vector<core::HostId> link_from_;  ///< per directed link: its source
  /// ceil(max(p_avg, channels)·2^53) per link — Sophisticated's draw.
  std::vector<std::uint64_t> link_best_threshold_;
  std::vector<std::uint32_t> pick_begin_;  ///< E+1 offsets into pick_pool_
  /// Per link [p_avg, channel...] as acceptance thresholds.
  std::vector<std::uint64_t> pick_pool_;
};

class CompiledPropagation {
 public:
  /// Precomputes the CSR adjacency and per-link channel tables for
  /// `assignment`; the assignment is only read during construction.
  CompiledPropagation(const core::Assignment& assignment, SimulationParams params);

  /// Shares an existing channel build: `params.model` must equal the model
  /// the channels were compiled for (throws InvalidArgument otherwise).
  /// Strategy, silent/detection probabilities and the horizon are free to
  /// differ — they are resolved per instance, not per channel table.
  CompiledPropagation(std::shared_ptr<const PropagationChannels> channels,
                      SimulationParams params);

  [[nodiscard]] const SimulationParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t host_count() const noexcept { return channels_->host_count(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return channels_->link_count(); }
  [[nodiscard]] const std::shared_ptr<const PropagationChannels>& channels() const noexcept {
    return channels_;
  }

  /// One simulation run; deterministic given `rng`'s state.  `state` is
  /// caller-provided scratch, reusable across runs and simulators.
  RunResult run_once(core::HostId entry, core::HostId target, support::Rng& rng,
                     SimState& state) const;

  /// Cumulative infected-host counts per tick for one run (tick 0 = the
  /// entry foothold), `ticks + 1` entries.
  [[nodiscard]] std::vector<std::size_t> epidemic_curve(core::HostId entry, std::size_t ticks,
                                                        support::Rng& rng,
                                                        SimState& state) const;

  /// MTTC over `runs` independent runs.  When `parallel`, the runs are
  /// split into `threads` contiguous chunks (0 = the global pool's width)
  /// with one SimState per chunk; per-run seeded streams make the result
  /// bit-identical for every chunking, including the sequential path.
  [[nodiscard]] MttcResult mttc(core::HostId entry, core::HostId target, std::size_t runs,
                                std::uint64_t seed, bool parallel = true,
                                std::size_t threads = 0) const;

 private:
  /// Starts a run on this substrate: state cleared, entry infected.
  void start_run(SimState& state, core::HostId entry) const;

  /// Marks `host` infected and appends its links to the attempt list.
  void infect(SimState& state, core::HostId host) const;

  /// Advances one tick; returns true when the target was infected.  Sets
  /// `dead` when the compacted attempt list was empty this tick.
  bool tick(SimState& state, core::HostId target, support::Rng& rng, bool& dead) const;

  SimulationParams params_;
  std::shared_ptr<const PropagationChannels> channels_;
  bool defender_ = false;  ///< detection_probability > 0
  bool has_silent_ = false;  ///< gates the silent draw (a 0-probability
                             ///< threshold must not consume an RNG step)
  std::uint64_t silent_threshold_ = 0;
  std::uint64_t detection_threshold_ = 0;
};

}  // namespace icsdiv::sim
