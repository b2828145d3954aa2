#include "sim/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "sim/kernels.hpp"
#include "support/bytes.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::sim {

using support::acceptance_threshold;

namespace {

void clear_bits(std::vector<std::uint32_t>& bits, std::size_t word_count) {
  if (bits.size() != word_count) {
    bits.assign(word_count, 0);
  } else {
    std::fill(bits.begin(), bits.end(), 0);
  }
}

/// True when `offsets` (non-empty) is a prefix-offset index over `size`
/// items: it starts at 0, never decreases and ends at `size`.
bool indexes(const std::vector<std::uint32_t>& offsets, std::size_t size) {
  return offsets.front() == 0 && offsets.back() == size &&
         std::is_sorted(offsets.begin(), offsets.end());
}

}  // namespace

void SimState::begin_run(std::size_t host_count, std::size_t link_count, bool defender,
                         core::HostId entry_host) {
  const std::size_t word_count = support::simd::bitset_words(host_count);
  clear_bits(marked, word_count);
  if (defender) clear_bits(remediated, word_count);
  if (attempts.size() < link_count) attempts.resize(link_count);
  if (fresh.size() < link_count) fresh.resize(link_count);
  attempt_count = 0;
  active.clear();
  ever_infected = 0;
  entry = entry_host;
}

PropagationChannels::PropagationChannels(const core::Assignment& assignment,
                                         const bayes::PropagationModel& model)
    : model_(model) {
  require(model_.p_avg >= 0.0 && model_.p_avg <= 1.0, "PropagationChannels",
          "p_avg must be in [0,1]");

  const core::Network& network = assignment.network();
  host_count_ = network.host_count();
  const auto& edges = network.topology().edges();

  // Counting sort over the edge list: stable, so each host's links appear
  // in the order the historical per-host push_back produced (both
  // directions of an edge appended while that edge is scanned).
  offsets_.assign(host_count_ + 1, 0);
  for (const graph::Edge& link : edges) {
    ++offsets_[link.u + 1];
    ++offsets_[link.v + 1];
  }
  for (std::size_t h = 0; h < host_count_; ++h) offsets_[h + 1] += offsets_[h];

  const std::size_t link_count = offsets_[host_count_];
  link_to_.resize(link_count);
  link_best_threshold_.resize(link_count);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::vector<double> scratch_pool;  // channel picks in edge-scan order
  scratch_pool.reserve(link_count);
  std::vector<std::uint32_t> scratch_begin(link_count, 0);
  std::vector<std::uint32_t> scratch_count(link_count, 0);
  for (const graph::Edge& link : edges) {
    for (const auto& [from, to] : {std::pair{link.u, link.v}, std::pair{link.v, link.u}}) {
      const auto begin = static_cast<std::uint32_t>(scratch_pool.size());
      scratch_pool.push_back(model_.p_avg);  // pick 0: the baseline channel
      double best = model_.p_avg;
      if (model_.consider_similarity) {
        bayes::append_similarity_probabilities(assignment, from, to, model_, scratch_pool);
        for (std::size_t p = begin + 1; p < scratch_pool.size(); ++p) {
          best = std::max(best, scratch_pool[p]);
        }
      }
      const std::uint32_t slot = cursor[from]++;
      link_to_[slot] = to;
      link_best_threshold_[slot] = acceptance_threshold(best);
      scratch_begin[slot] = begin;
      scratch_count[slot] = static_cast<std::uint32_t>(scratch_pool.size() - begin);
    }
  }
  // Re-lay the pick pool in CSR link order so a host's uniform-pick tables
  // are contiguous during the tick scan.
  pick_begin_.resize(link_count + 1);
  pick_pool_.reserve(scratch_pool.size());
  for (std::size_t l = 0; l < link_count; ++l) {
    pick_begin_[l] = static_cast<std::uint32_t>(pick_pool_.size());
    for (std::uint32_t p = 0; p < scratch_count[l]; ++p) {
      pick_pool_.push_back(acceptance_threshold(scratch_pool[scratch_begin[l] + p]));
    }
  }
  pick_begin_[link_count] = static_cast<std::uint32_t>(pick_pool_.size());
  index_link_sources();
}

void PropagationChannels::index_link_sources() {
  link_from_.resize(link_to_.size());
  for (std::size_t h = 0; h < host_count_; ++h) {
    std::fill(link_from_.begin() + offsets_[h], link_from_.begin() + offsets_[h + 1],
              static_cast<core::HostId>(h));
  }
}

std::string PropagationChannels::serialize() const {
  support::ByteWriter writer;
  writer.f64(model_.p_avg);
  writer.f64(model_.similarity_weight);
  writer.boolean(model_.consider_similarity);
  writer.u64(host_count_);
  // The record keeps the maximum degree, which nothing reads back any more.
  std::uint64_t max_degree = 0;
  for (std::size_t h = 0; h < host_count_; ++h) {
    max_degree = std::max<std::uint64_t>(max_degree, offsets_[h + 1] - offsets_[h]);
  }
  writer.u64(max_degree);
  writer.u32_span(offsets_);
  writer.u32_span(link_to_);
  writer.u64_span(link_best_threshold_);
  writer.u32_span(pick_begin_);
  writer.u64_span(pick_pool_);
  return writer.take();
}

PropagationChannels PropagationChannels::deserialize(std::string_view data) {
  support::ByteReader reader(data);
  PropagationChannels channels;
  channels.model_.p_avg = reader.f64();
  channels.model_.similarity_weight = reader.f64();
  channels.model_.consider_similarity = reader.boolean();
  channels.host_count_ = reader.u64();
  static_cast<void>(reader.u64());  // the maximum degree (see serialize())
  channels.offsets_ = reader.u32_span<std::uint32_t>();
  channels.link_to_ = reader.u32_span<core::HostId>();
  channels.link_best_threshold_ = reader.u64_span();
  channels.pick_begin_ = reader.u32_span<std::uint32_t>();
  channels.pick_pool_ = reader.u64_span();
  require(reader.exhausted(), "PropagationChannels::deserialize", "trailing bytes");
  require(channels.offsets_.size() == channels.host_count_ + 1,
          "PropagationChannels::deserialize", "offset table size mismatch");
  require(channels.pick_begin_.size() == channels.link_to_.size() + 1,
          "PropagationChannels::deserialize", "pick table size mismatch");
  require(channels.link_best_threshold_.size() == channels.link_to_.size(),
          "PropagationChannels::deserialize", "threshold table size mismatch");
  // The tick indexes the mark bitsets and the tables with these values
  // unchecked, so a record that breaks them must not load.
  require(indexes(channels.offsets_, channels.link_to_.size()) &&
              indexes(channels.pick_begin_, channels.pick_pool_.size()),
          "PropagationChannels::deserialize", "offset table is not an index of its pool");
  require(std::all_of(channels.link_to_.begin(), channels.link_to_.end(),
                      [&](core::HostId to) { return to < channels.host_count_; }),
          "PropagationChannels::deserialize", "link target out of range");
  channels.index_link_sources();
  return channels;
}

namespace {

void validate_run_params(const SimulationParams& params) {
  require(params.silent_probability >= 0.0 && params.silent_probability < 1.0,
          "CompiledPropagation", "silent probability must be in [0,1)");
  require(params.max_ticks > 0, "CompiledPropagation", "max_ticks must be positive");
  require(params.detection_probability >= 0.0 && params.detection_probability <= 1.0,
          "CompiledPropagation", "detection probability must be in [0,1]");
}

}  // namespace

CompiledPropagation::CompiledPropagation(const core::Assignment& assignment,
                                         SimulationParams params)
    // Fail fast on bad run params (the historical order) — the O(V+E)
    // channel compilation only starts once every knob validated.
    : CompiledPropagation((validate_run_params(params),
                           std::make_shared<const PropagationChannels>(assignment, params.model)),
                          params) {}

CompiledPropagation::CompiledPropagation(std::shared_ptr<const PropagationChannels> channels,
                                         SimulationParams params)
    : params_(params), channels_(std::move(channels)) {
  require(channels_ != nullptr, "CompiledPropagation", "channels must not be null");
  const bayes::PropagationModel& compiled = channels_->model();
  require(compiled.p_avg == params_.model.p_avg &&
              compiled.similarity_weight == params_.model.similarity_weight &&
              compiled.consider_similarity == params_.model.consider_similarity,
          "CompiledPropagation", "params.model differs from the shared channels' model");
  validate_run_params(params_);
  defender_ = params_.detection_probability > 0.0;
  has_silent_ = params_.silent_probability > 0.0;
  silent_threshold_ = acceptance_threshold(params_.silent_probability);
  detection_threshold_ = acceptance_threshold(params_.detection_probability);
}

bool CompiledPropagation::tick(SimState& state, core::HostId target, support::Rng& caller_rng,
                               bool& dead) const {
  const PropagationChannels& ch = *channels_;
  // A local copy keeps the generator state in registers through the loops
  // (stores through the caller's reference may alias the u64 threshold
  // tables as far as the compiler knows).
  support::Rng rng = caller_rng;
  std::uint32_t* const attempts = state.attempts.data();
  const std::uint32_t* const link_to = ch.link_to_.data();
  core::HostId* const fresh = state.fresh.data();
  // Compact: what is left is exactly this tick's per-attacker frontiers,
  // joined in infection order (see the header).
  const std::size_t open =
      defender_ ? kernels::compact_attempts<true>(attempts, state.attempt_count, link_to,
                                                  ch.link_from_.data(), state.marked.data(),
                                                  state.remediated.data())
                : kernels::compact_attempts<false>(attempts, state.attempt_count, link_to,
                                                   nullptr, state.marked.data(), nullptr);
  state.attempt_count = open;
  // Synchronous update: infections land after all of this tick's attempts,
  // so iteration order cannot bias the dynamics.
  std::size_t fresh_count = 0;
  if (params_.strategy == AttackerStrategy::Sophisticated) {
    fresh_count = kernels::draw_sophisticated(rng, attempts, open, link_to,
                                              ch.link_best_threshold_.data(), fresh);
  } else {
    // Uniform attacker: the silent roll and the exploit pick are
    // *conditional* draws — whether a word is consumed depends on the
    // previous word — so this loop stays serial, branchless only on the
    // success compaction.
    for (std::size_t i = 0; i < open; ++i) {
      const std::uint32_t l = attempts[i];
      if (has_silent_ && (rng() >> 11) < silent_threshold_) continue;
      const std::uint32_t picks = ch.pick_begin_[l];
      const std::uint64_t threshold =
          ch.pick_pool_[picks + rng.index(ch.pick_begin_[l + 1] - picks)];
      fresh[fresh_count] = link_to[l];
      fresh_count += (rng() >> 11) < threshold ? 1 : 0;
    }
  }
  bool hit_target = false;
  for (std::size_t f = 0; f < fresh_count; ++f) {
    const core::HostId host = fresh[f];
    if (!support::simd::bit_test(state.marked.data(), host)) {
      infect(state, host);
      hit_target = hit_target || host == target;
    }
  }
  // Defender pass: detected hosts are remediated and become immune; the
  // next compaction drops their links.  The entry foothold is assumed to
  // persist (the attacker controls it through an out-of-band channel).
  // Remediated hosts stay marked — no longer infectious, but not
  // susceptible either.
  if (defender_) {
    std::erase_if(state.active, [&](core::HostId host) {
      const bool detected = host != state.entry && (rng() >> 11) < detection_threshold_;
      if (detected) support::simd::bit_set(state.remediated.data(), host);
      return detected;
    });
  }
  // No open link anywhere ⇒ nothing can ever change again (remediation
  // only shrinks the susceptible set).
  dead = open == 0;
  caller_rng = rng;
  return hit_target;
}

void CompiledPropagation::infect(SimState& state, core::HostId host) const {
  support::simd::bit_set(state.marked.data(), host);
  ++state.ever_infected;
  const std::uint32_t begin = channels_->offsets_[host];
  const std::uint32_t end = channels_->offsets_[host + 1];
  std::uint32_t* const tail = state.attempts.data() + state.attempt_count;
  std::iota(tail, tail + (end - begin), begin);
  state.attempt_count += end - begin;
  if (defender_) state.active.push_back(host);
}

void CompiledPropagation::start_run(SimState& state, core::HostId entry) const {
  state.begin_run(host_count(), link_count(), defender_, entry);
  infect(state, entry);
}

RunResult CompiledPropagation::run_once(core::HostId entry, core::HostId target,
                                        support::Rng& rng, SimState& state) const {
  require(entry < host_count() && target < host_count(), "CompiledPropagation::run_once",
          "unknown entry/target host");
  start_run(state, entry);

  RunResult result;
  if (entry == target) {
    result.target_reached = true;
    result.infected_count = 1;
    return result;
  }
  for (std::size_t t = 1; t <= params_.max_ticks; ++t) {
    bool dead = false;
    if (tick(state, target, rng, dead)) {
      result.target_reached = true;
      result.ticks = t;
      result.infected_count = state.ever_infected;
      return result;
    }
    if (dead) {
      result.extinct = true;
      break;
    }
  }
  // Censored: the horizon is reported whether the run spun there or the
  // worm died out early (identical MTTC accounting either way).
  result.ticks = params_.max_ticks;
  result.infected_count = state.ever_infected;
  return result;
}

std::vector<std::size_t> CompiledPropagation::epidemic_curve(core::HostId entry,
                                                             std::size_t ticks,
                                                             support::Rng& rng,
                                                             SimState& state) const {
  require(entry < host_count(), "CompiledPropagation::epidemic_curve", "unknown entry host");
  start_run(state, entry);

  std::vector<std::size_t> curve;
  curve.reserve(ticks + 1);
  curve.push_back(state.ever_infected);
  constexpr core::HostId kNoTarget = static_cast<core::HostId>(-1);
  // No dead-state exit here: the curve has a fixed length, and ticking on
  // keeps the caller-visible RNG stream identical to the seed-era code
  // (a dead tick draws only the defender's detection rolls).
  for (std::size_t t = 0; t < ticks; ++t) {
    bool dead = false;
    tick(state, kNoTarget, rng, dead);
    curve.push_back(state.ever_infected);
  }
  return curve;
}

MttcResult CompiledPropagation::mttc(core::HostId entry, core::HostId target, std::size_t runs,
                                     std::uint64_t seed, bool parallel,
                                     std::size_t threads) const {
  require(runs > 0, "CompiledPropagation::mttc", "need at least one run");

  std::vector<double> ticks(runs, 0.0);
  std::vector<std::uint8_t> censored(runs, 0);
  const auto run_range = [&](std::size_t lo, std::size_t hi, SimState& state) {
    for (std::size_t r = lo; r < hi; ++r) {
      // Per-run streams mean a cancel between runs never perturbs the
      // draws of runs that did complete (determinism under cancellation).
      params_.cancel.check("sim.mttc");
      // Independent deterministic stream per run — the historical formula,
      // so every chunking (and the sequential path) is bit-identical.
      support::Rng rng = support::stream_rng(seed, r);
      const RunResult result = run_once(entry, target, rng, state);
      ticks[r] = static_cast<double>(result.ticks);
      censored[r] = result.target_reached ? 0 : 1;
    }
  };

  std::size_t workers = 1;
  if (parallel && runs > 1) {
    workers = threads != 0 ? threads : support::global_thread_pool().size();
    workers = std::clamp<std::size_t>(workers, 1, runs);
  }
  if (workers <= 1) {
    SimState state;
    run_range(0, runs, state);
  } else {
    const std::size_t chunk = (runs + workers - 1) / workers;
    support::global_thread_pool().parallel_for(workers, [&](std::size_t w) {
      const std::size_t lo = w * chunk;
      const std::size_t hi = std::min(runs, lo + chunk);
      if (lo >= hi) return;
      SimState state;  // one scratch per chunk, reused across its runs
      run_range(lo, hi, state);
    });
  }

  MttcResult result;
  result.runs = runs;
  double sum = 0.0;
  double uncensored_sum = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sum += ticks[r];
    result.censored += censored[r];
    if (!censored[r]) uncensored_sum += ticks[r];
  }
  result.mean = sum / static_cast<double>(runs);
  const std::size_t reached = runs - result.censored;
  result.uncensored_mean = reached > 0 ? uncensored_sum / static_cast<double>(reached)
                                       : std::numeric_limits<double>::quiet_NaN();
  double sum_squared_error = 0.0;
  for (double t : ticks) sum_squared_error += (t - result.mean) * (t - result.mean);
  if (runs > 1) {
    result.std_dev = std::sqrt(sum_squared_error / static_cast<double>(runs - 1));
    result.ci95_half_width = 1.96 * result.std_dev / std::sqrt(static_cast<double>(runs));
  }
  return result;
}

}  // namespace icsdiv::sim
