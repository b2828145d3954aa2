// Portable SIMD kernel layer (DESIGN.md §14).
//
// Every hot inner loop of the three compiled substrates — TRW-S/BP
// min-plus message updates and reparameterisation folds over the flat
// label pools, the worm simulator's frontier gather and Bernoulli
// acceptance over the CSR link arrays, and the reliability sampler's
// per-burst edge firing — is an elementwise pass over flat arrays.  This
// header names those passes once, as a table of kernel function pointers,
// and `simd.cpp` provides runtime-dispatched implementations: a scalar
// reference, an AVX2 path (x86-64, selected when the CPU reports the
// feature), and a NEON path (aarch64).
//
// The contract every implementation must honour is **bit-identity**: for
// any input, every dispatch target returns byte-for-byte the same output
// as the scalar reference (tests/support/simd_test.cpp property-checks
// this on every supported target).  The kernels make that cheap to
// guarantee because they are elementwise — each output element depends on
// its own input elements through a fixed operation sequence, so vector
// lanes compute exactly the scalar expression and no floating-point
// reassociation ever happens.  The only cross-element operations are
// min/max reductions, whose results are reduction-order-independent for
// finite doubles once the sign of a zero result is canonicalised (the
// kernels return `m + 0.0`).  Two deliberate choices keep the guarantee
// airtight:
//
//   * `simd.cpp` is compiled with `-ffp-contract=off`, so the scalar
//     reference can never be contracted into FMA while the vector path
//     uses separate multiply/add instructions (or vice versa).
//   * Tie semantics of min/max are pinned by operand order:
//     `std::min(a, b)` keeps `a` on ties exactly as `vminpd(b, a)` does,
//     and the scalar kernels are written in that form.
//
// Inputs must be NaN-free (solver costs and probabilities always are);
// behaviour on NaN is unspecified but consistent per dispatch.
//
// Dispatch is process-global: detected once at first use, overridable by
// the `ICSDIV_SIMD` environment variable (`scalar`, `avx2`, `neon`) or
// programmatically via `set_active()` (the property tests iterate all
// supported targets this way).  Raw vendor intrinsics are allowed ONLY in
// `src/support/simd.hpp` / `src/support/simd.cpp` — the invariant linter
// (tools/lint_invariants.py, rule `raw-intrinsics`) rejects them anywhere
// else, so every consumer goes through this table and inherits the
// bit-identity contract.
#pragma once

#include <cstddef>
#include <cstdint>

namespace icsdiv::support::simd {

enum class Dispatch : int { Scalar = 0, Avx2 = 1, Neon = 2 };

/// The kernel table.  All pointers are always non-null; `kernels(d)` for
/// an unsupported dispatch returns the scalar table.
struct Kernels {
  // ---- double kernels (elementwise over flat label pools) ----

  /// dst[i] += src[i] — message/unary aggregation (TRW-S, BP, ICM polish).
  void (*add)(double* dst, const double* src, std::size_t n);

  /// min over v[0..n), +0.0-canonicalised (∞ for n == 0) — message
  /// normalisation and the lower-bound root fold.
  double (*min_value)(const double* v, std::size_t n);

  /// v[i] -= c — message normalisation to min 0.
  void (*sub_scalar)(double* v, double c, std::size_t n);

  /// BP damping: out[i] = damping * old_msg[i] + keep * (out[i] - delta)
  /// (keep = 1 - damping, hoisted); returns max |out[i] - old_msg[i]|,
  /// the shard's convergence delta (max over nonnegatives: order-free).
  double (*damp_update)(double* out, const double* old_msg, double delta, double damping,
                        double keep, std::size_t n);

  /// min over (row[i] - msg[i]) - c — the TRW-S chord-edge bound fold,
  /// +0.0-canonicalised.
  double (*fold_chord)(const double* row, const double* msg, double c, std::size_t n);

  /// min over d[i] + ((row[i] - c) - msg[i]) — the forest-DP fold when the
  /// child is the edge's u end, +0.0-canonicalised.
  double (*fold_tree_cm)(const double* d, const double* row, double c, const double* msg,
                         std::size_t n);

  /// min over d[i] + ((row[i] - msg[i]) - c) — the forest-DP fold when the
  /// child is the edge's v end, +0.0-canonicalised.
  double (*fold_tree_mc)(const double* d, const double* row, const double* msg, double c,
                         std::size_t n);

  // ---- fused kernels (label pools are tiny — L is typically 5 — so the
  // ---- per-call overhead of composing the primitives above dominates;
  // ---- these fuse whole per-variable/per-edge passes into one call with
  // ---- the accumulator held in registers across rows) ----

  /// Fused θ̂ aggregation: dst[j] = rows[0][j] + rows[1][j] + … summed in
  /// row order per element (row_count ≥ 1) — one call per variable
  /// instead of one add() per incident edge.
  void (*sum_rows)(double* dst, const double* const* rows, std::size_t row_count, std::size_t n);

  /// Fused pair-sweep joint block:
  /// dst[a·cols + b] = (row_add[a] + col_add[b]) + m[a·cols + b].
  void (*joint_block)(double* dst, const double* col_add, const double* row_add, const double* m,
                      std::size_t rows, std::size_t cols);

  /// Fused min-plus convolution with the reparameterised base computed
  /// inline: out[j] = min over i of ((s·a[i] − b[i]) + rows[i·out_count + j]),
  /// ties keeping the earlier i; returns the +0.0-canonicalised min over
  /// out.  s = γ for the TRW-S update, s = 1.0 (an exact multiply) for
  /// BP's plain aggregate-subtract — both skip the reduced-aggregate
  /// scratch buffer entirely.
  double (*min_convolve2)(double* out, const double* rows, double s, const double* a,
                          const double* b, std::size_t in_count, std::size_t out_count);

  // ---- integer kernels (word-parallel frontier / acceptance) ----

  /// Frontier gather over a bitset: writes base+i (in order of i) to `out`
  /// for every i < n whose target bit `to[i]` is UNSET in `bits`, returns
  /// how many were written.  `out` needs n writable slots; slots past the
  /// returned count hold garbage.
  std::size_t (*gather_unset)(const std::uint32_t* to, std::size_t n, const std::uint32_t* bits,
                              std::uint32_t base, std::uint32_t* out);

  /// Indexed Bernoulli acceptance: for each i < n, accepts when
  /// words[i] < threshold[idx[i]] and writes to[idx[i]] to `out` in order;
  /// returns the accepted count.  words must be < 2^63 (they are 53-bit
  /// RNG draws).  `out` needs n writable slots.
  std::size_t (*accept_indexed)(const std::uint32_t* idx, std::size_t n, const std::uint32_t* to,
                                const std::uint64_t* threshold, const std::uint64_t* words,
                                std::uint32_t* out);

  /// Burst edge firing: for each i < n, fires when words[i] < threshold[i]
  /// and writes (to[i] << 1) | (words[i] < baseline) to `out` in order;
  /// returns the fired count.  `out` needs n writable slots.
  std::size_t (*fire_record)(const std::uint64_t* words, const std::uint64_t* threshold,
                             const std::uint32_t* to, std::size_t n, std::uint64_t baseline,
                             std::uint32_t* out);
};

/// The active kernel table (cheap: one relaxed atomic load).
[[nodiscard]] const Kernels& kernels() noexcept;

/// The table of a specific dispatch; the scalar table when unsupported.
[[nodiscard]] const Kernels& kernels(Dispatch dispatch) noexcept;

/// Currently active dispatch.  First call resolves the default: the best
/// supported target, downgraded by `ICSDIV_SIMD` when set.
[[nodiscard]] Dispatch active() noexcept;

/// Forces the active dispatch; returns false (and changes nothing) when
/// the target is not supported on this CPU/build.  Scalar always works.
bool set_active(Dispatch dispatch) noexcept;

/// Whether a dispatch target is compiled in and runtime-supported.
[[nodiscard]] bool supported(Dispatch dispatch) noexcept;

/// Stable lowercase name ("scalar", "avx2", "neon") — also the accepted
/// `ICSDIV_SIMD` values.
[[nodiscard]] const char* name(Dispatch dispatch) noexcept;

/// Parses an `ICSDIV_SIMD` value; returns false on unknown names.
bool parse_dispatch(const char* text, Dispatch& out) noexcept;

// ---- bitset helpers (the word-parallel frontier marks) ----

/// Words needed for a bitset of `bits` bits (32-bit words: the AVX2
/// gather path reads them with 32-bit lane gathers).
[[nodiscard]] constexpr std::size_t bitset_words(std::size_t bits) noexcept {
  return (bits + 31) / 32;
}

[[nodiscard]] inline bool bit_test(const std::uint32_t* words, std::uint32_t bit) noexcept {
  return ((words[bit >> 5] >> (bit & 31u)) & 1u) != 0;
}

inline void bit_set(std::uint32_t* words, std::uint32_t bit) noexcept {
  words[bit >> 5] |= (1u << (bit & 31u));
}

}  // namespace icsdiv::support::simd
