// The SIMD kernel layer's bit-identity contract (DESIGN.md §14): every
// dispatch target must produce byte-for-byte the scalar reference's
// output for every kernel — property-checked here over randomized inputs
// at every size class (vector blocks, tails, empty), with per-kernel
// golden pins, the dispatch-override plumbing (ICSDIV_SIMD parsing and
// set_active forced-scalar fallback), and cross-dispatch end-to-end runs
// of all four kernelized pillars (TRW-S, BP, worm MTTC, reliability MC).
#include "support/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bayes/compiled.hpp"
#include "mrf/bp.hpp"
#include "mrf/trws.hpp"
#include "sim/compiled.hpp"
#include "support/rng.hpp"

namespace icsdiv::support::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every dispatch target available on this machine/build.  Scalar is
/// always first — the property tests compare the others against it.
std::vector<Dispatch> supported_dispatches() {
  std::vector<Dispatch> out{Dispatch::Scalar};
  if (supported(Dispatch::Avx2)) out.push_back(Dispatch::Avx2);
  if (supported(Dispatch::Neon)) out.push_back(Dispatch::Neon);
  return out;
}

/// Sizes straddling every lane-count boundary: empty, sub-vector tails,
/// exact blocks, and block+tail combinations for 2/4/8-wide kernels.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 67};

/// Adversarial cost values: signed zeros, exact ties (quantised values
/// repeat), large/small magnitudes, and plain uniforms.
double random_cost(Rng& rng) {
  switch (rng.uniform_below(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return static_cast<double>(rng.uniform_below(9)) * 0.25 - 1.0;  // exact ties
    case 3:
      return (rng.uniform() - 0.5) * 1e12;
    case 4:
      return (rng.uniform() - 0.5) * 1e-12;
    default:
      return rng.uniform() * 2.0 - 1.0;
  }
}

std::vector<double> random_costs(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = random_cost(rng);
  return v;
}

void expect_bitwise_equal(const std::vector<double>& scalar, const std::vector<double>& other,
                          const char* what, Dispatch dispatch) {
  ASSERT_EQ(scalar.size(), other.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(bits(scalar[i]), bits(other[i]))
        << what << " diverges from scalar at index " << i << " under " << name(dispatch);
  }
}

/// RAII guard for the process-global dispatch (the e2e tests flip it).
class DispatchGuard {
 public:
  DispatchGuard() : saved_(active()) {}
  ~DispatchGuard() { set_active(saved_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  Dispatch saved_;
};

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(supported(Dispatch::Scalar));
  EXPECT_GE(supported_dispatches().size(), 1u);
}

TEST(SimdDispatch, ParseDispatchAcceptsDocumentedNames) {
  Dispatch d = Dispatch::Avx2;
  EXPECT_TRUE(parse_dispatch("scalar", d));
  EXPECT_EQ(d, Dispatch::Scalar);
  EXPECT_TRUE(parse_dispatch("off", d));
  EXPECT_EQ(d, Dispatch::Scalar);
  EXPECT_TRUE(parse_dispatch("avx2", d));
  EXPECT_EQ(d, Dispatch::Avx2);
  EXPECT_TRUE(parse_dispatch("neon", d));
  EXPECT_EQ(d, Dispatch::Neon);
  EXPECT_FALSE(parse_dispatch("AVX2", d));
  EXPECT_FALSE(parse_dispatch("", d));
  EXPECT_FALSE(parse_dispatch("sse2", d));
  EXPECT_FALSE(parse_dispatch(nullptr, d));
}

TEST(SimdDispatch, NameRoundTripsThroughParse) {
  for (const Dispatch d : {Dispatch::Scalar, Dispatch::Avx2, Dispatch::Neon}) {
    Dispatch parsed = Dispatch::Scalar;
    EXPECT_TRUE(parse_dispatch(name(d), parsed));
    EXPECT_EQ(parsed, d);
  }
}

TEST(SimdDispatch, ForcedScalarFallbackSwitchesTheActiveTable) {
  DispatchGuard guard;
  ASSERT_TRUE(set_active(Dispatch::Scalar));
  EXPECT_EQ(active(), Dispatch::Scalar);
  // The active table must be the scalar table itself, not a copy.
  EXPECT_EQ(kernels().add, kernels(Dispatch::Scalar).add);
  EXPECT_EQ(kernels().fire_record, kernels(Dispatch::Scalar).fire_record);
}

TEST(SimdDispatch, UnsupportedTargetIsRejectedAndFallsBackToScalarTable) {
  for (const Dispatch d : {Dispatch::Avx2, Dispatch::Neon}) {
    if (supported(d)) continue;
    const Dispatch before = active();
    EXPECT_FALSE(set_active(d));
    EXPECT_EQ(active(), before);  // a rejected switch changes nothing
    EXPECT_EQ(kernels(d).add, kernels(Dispatch::Scalar).add);
  }
}

// ---------------------------------------------------------------------------
// Per-kernel bit-identity properties (every dispatch vs scalar)
// ---------------------------------------------------------------------------

TEST(SimdBitIdentity, ElementwiseDoubleKernels) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(17);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<double> a = random_costs(rng, n);
        const double c = random_cost(rng);

        std::vector<double> lhs = random_costs(rng, n);
        std::vector<double> rhs = lhs;
        scalar.add(lhs.data(), a.data(), n);
        k.add(rhs.data(), a.data(), n);
        expect_bitwise_equal(lhs, rhs, "add", d);

        scalar.sub_scalar(lhs.data(), c, n);
        k.sub_scalar(rhs.data(), c, n);
        expect_bitwise_equal(lhs, rhs, "sub_scalar", d);
      }
    }
  }
}

TEST(SimdBitIdentity, MinValue) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(29);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        // A mix of ∞ (the min-convolve init) and finite values.
        std::vector<double> v(n);
        for (double& x : v) x = rng.uniform_below(3) == 0 ? kInf : random_cost(rng);
        ASSERT_EQ(bits(scalar.min_value(v.data(), n)), bits(k.min_value(v.data(), n)))
            << "min_value diverges under " << name(d);
      }
    }
  }
}

TEST(SimdBitIdentity, DampUpdateAndFolds) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(43);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<double> old_msg = random_costs(rng, n);
        const std::vector<double> row = random_costs(rng, n);
        const std::vector<double> msg = random_costs(rng, n);
        const std::vector<double> depth = random_costs(rng, n);
        const double delta = random_cost(rng);
        const double c = random_cost(rng);
        const double damping = trial % 2 == 0 ? 0.0 : 0.5;
        const double keep = 1.0 - damping;

        std::vector<double> lhs = random_costs(rng, n);
        std::vector<double> rhs = lhs;
        const double max_scalar =
            scalar.damp_update(lhs.data(), old_msg.data(), delta, damping, keep, n);
        const double max_simd = k.damp_update(rhs.data(), old_msg.data(), delta, damping, keep, n);
        expect_bitwise_equal(lhs, rhs, "damp_update", d);
        ASSERT_EQ(bits(max_scalar), bits(max_simd)) << "damp_update max under " << name(d);

        ASSERT_EQ(bits(scalar.fold_chord(row.data(), msg.data(), c, n)),
                  bits(k.fold_chord(row.data(), msg.data(), c, n)))
            << "fold_chord under " << name(d);
        ASSERT_EQ(bits(scalar.fold_tree_cm(depth.data(), row.data(), c, msg.data(), n)),
                  bits(k.fold_tree_cm(depth.data(), row.data(), c, msg.data(), n)))
            << "fold_tree_cm under " << name(d);
        ASSERT_EQ(bits(scalar.fold_tree_mc(depth.data(), row.data(), msg.data(), c, n)),
                  bits(k.fold_tree_mc(depth.data(), row.data(), msg.data(), c, n)))
            << "fold_tree_mc under " << name(d);
      }
    }
  }
}

TEST(SimdBitIdentity, FusedKernels) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(61);
    for (const std::size_t n : kSizes) {
      if (n == 0) continue;  // sum_rows requires row_count >= 1; blocks need extent
      for (int trial = 0; trial < 8; ++trial) {
        // sum_rows over 1..9 rows (degree-shaped pointer lists).
        const std::size_t row_count = 1 + rng.uniform_below(9);
        std::vector<std::vector<double>> storage;
        storage.reserve(row_count);
        std::vector<const double*> rows;
        for (std::size_t r = 0; r < row_count; ++r) {
          storage.push_back(random_costs(rng, n));
          rows.push_back(storage.back().data());
        }
        std::vector<double> lhs(n);
        std::vector<double> rhs(n);
        scalar.sum_rows(lhs.data(), rows.data(), row_count, n);
        k.sum_rows(rhs.data(), rows.data(), row_count, n);
        expect_bitwise_equal(lhs, rhs, "sum_rows", d);

        // min_convolve2 over an in_count × n block (the quantised
        // random_cost values force plenty of ties).
        const std::size_t in_count = 1 + rng.uniform_below(7);
        const std::vector<double> block = random_costs(rng, in_count * n);
        const std::vector<double> base = random_costs(rng, in_count);
        const std::vector<double> a = random_costs(rng, in_count);
        const std::vector<double> b = random_costs(rng, in_count);
        const double s = random_cost(rng);
        ASSERT_EQ(
            bits(scalar.min_convolve2(lhs.data(), block.data(), s, a.data(), b.data(), in_count,
                                      n)),
            bits(k.min_convolve2(rhs.data(), block.data(), s, a.data(), b.data(), in_count, n)))
            << "min_convolve2 min under " << name(d);
        expect_bitwise_equal(lhs, rhs, "min_convolve2", d);

        // joint_block over an in_count × n pair block (row_add has
        // `rows` entries, col_add has `cols`).
        const std::vector<double> col_add = random_costs(rng, n);
        std::vector<double> jl(in_count * n);
        std::vector<double> jr(in_count * n);
        scalar.joint_block(jl.data(), col_add.data(), base.data(), block.data(), in_count, n);
        k.joint_block(jr.data(), col_add.data(), base.data(), block.data(), in_count, n);
        expect_bitwise_equal(jl, jr, "joint_block", d);
      }
    }
  }
}

TEST(SimdBitIdentity, IntegerKernels) {
  const Kernels& scalar = kernels(Dispatch::Scalar);
  constexpr std::uint64_t kOne53 = std::uint64_t{1} << 53;
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    Rng rng(71);
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 8; ++trial) {
        // gather_unset: random bitset over 96 hosts, random targets.
        std::vector<std::uint32_t> mark_bits(bitset_words(96), 0);
        for (int i = 0; i < 48; ++i) {
          bit_set(mark_bits.data(), static_cast<std::uint32_t>(rng.uniform_below(96)));
        }
        std::vector<std::uint32_t> to(n);
        for (auto& t : to) t = static_cast<std::uint32_t>(rng.uniform_below(96));
        const auto base = static_cast<std::uint32_t>(rng.uniform_below(1000));
        std::vector<std::uint32_t> out_scalar(n), out_simd(n);
        const std::size_t count_scalar =
            scalar.gather_unset(to.data(), n, mark_bits.data(), base, out_scalar.data());
        const std::size_t count_simd =
            k.gather_unset(to.data(), n, mark_bits.data(), base, out_simd.data());
        ASSERT_EQ(count_scalar, count_simd) << "gather_unset count under " << name(d);
        for (std::size_t i = 0; i < count_scalar; ++i) {
          ASSERT_EQ(out_scalar[i], out_simd[i]) << "gather_unset[" << i << "] under " << name(d);
        }

        // accept_indexed: thresholds hit the boundary cases (0 accepts
        // nothing, 2^53 accepts everything, word == threshold rejects).
        const std::size_t pool = n + 8;
        std::vector<std::uint64_t> thresholds(pool);
        std::vector<std::uint32_t> link_to(pool);
        for (std::size_t i = 0; i < pool; ++i) {
          const auto kind = rng.uniform_below(4);
          thresholds[i] = kind == 0 ? 0 : kind == 1 ? kOne53 : rng.uniform_below(kOne53) + 1;
          link_to[i] = static_cast<std::uint32_t>(rng.uniform_below(1u << 20));
        }
        std::vector<std::uint32_t> idx(n);
        for (auto& x : idx) x = static_cast<std::uint32_t>(rng.uniform_below(pool));
        std::vector<std::uint64_t> words(n);
        for (std::size_t i = 0; i < n; ++i) {
          // Mix exact-boundary words in: word == threshold must reject,
          // word == threshold − 1 must accept.  Words stay below 2⁵³ (the
          // kernel contract — real words are rng() >> 11), so the
          // threshold−1 probe is skipped for threshold 0.
          words[i] = rng.uniform_below(2) == 0 ? thresholds[idx[i]] : rng() >> 11;
          if (thresholds[idx[i]] > 0 && rng.uniform_below(4) == 0) {
            words[i] = thresholds[idx[i]] - 1;
          }
        }
        const std::size_t accept_scalar = scalar.accept_indexed(
            idx.data(), n, link_to.data(), thresholds.data(), words.data(), out_scalar.data());
        const std::size_t accept_simd = k.accept_indexed(
            idx.data(), n, link_to.data(), thresholds.data(), words.data(), out_simd.data());
        ASSERT_EQ(accept_scalar, accept_simd) << "accept_indexed count under " << name(d);
        for (std::size_t i = 0; i < accept_scalar; ++i) {
          ASSERT_EQ(out_scalar[i], out_simd[i]) << "accept_indexed[" << i << "] under " << name(d);
        }

        // fire_record: same boundary mix plus the baseline sub-coupling bit.
        const std::uint64_t baseline = rng.uniform_below(kOne53) + 1;
        const std::size_t fire_scalar = scalar.fire_record(
            words.data(), thresholds.data(), link_to.data(), n, baseline, out_scalar.data());
        const std::size_t fire_simd = k.fire_record(words.data(), thresholds.data(),
                                                    link_to.data(), n, baseline, out_simd.data());
        ASSERT_EQ(fire_scalar, fire_simd) << "fire_record count under " << name(d);
        for (std::size_t i = 0; i < fire_scalar; ++i) {
          ASSERT_EQ(out_scalar[i], out_simd[i]) << "fire_record[" << i << "] under " << name(d);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pins: exact expected outputs per kernel, checked on every target.
// ---------------------------------------------------------------------------

TEST(SimdGolden, MinValuePinsIncludingZeroCanonicalisation) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    const std::vector<double> v = {3.5, -2.25, 7.0, -2.25, 0.5};
    EXPECT_EQ(bits(k.min_value(v.data(), v.size())), bits(-2.25)) << name(d);
    EXPECT_EQ(bits(k.min_value(v.data(), 0)), bits(kInf)) << name(d);
    // A −0.0 minimum canonicalises to +0.0 — the reduction-order shield.
    const std::vector<double> zeros = {1.0, -0.0, 2.0, 0.0, 4.0};
    EXPECT_EQ(bits(k.min_value(zeros.data(), zeros.size())), bits(+0.0)) << name(d);
  }
}

TEST(SimdGolden, ArithmeticKernelPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    std::vector<double> dst = {1.0, 2.0};
    const std::vector<double> a = {2.0, 3.0};
    k.add(dst.data(), a.data(), 2);
    EXPECT_EQ(bits(dst[0]), bits(3.0)) << name(d);
    EXPECT_EQ(bits(dst[1]), bits(5.0)) << name(d);
    std::vector<double> v = {1.5, 2.5};
    k.sub_scalar(v.data(), 0.5, 2);
    EXPECT_EQ(bits(v[0]), bits(1.0)) << name(d);
  }
}

TEST(SimdGolden, DampUpdateAndFoldPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    std::vector<double> out = {2.0};
    const std::vector<double> old_msg = {1.0};
    const double max_delta = k.damp_update(out.data(), old_msg.data(), /*delta=*/0.5,
                                           /*damping=*/0.25, /*keep=*/0.75, 1);
    EXPECT_EQ(bits(out[0]), bits(1.375)) << name(d);  // 0.25·1 + 0.75·1.5
    EXPECT_EQ(bits(max_delta), bits(0.375)) << name(d);

    const std::vector<double> row = {5.0, 1.0};
    const std::vector<double> msg = {1.0, 2.0};
    const std::vector<double> depth = {1.0, 2.0};
    EXPECT_EQ(bits(k.fold_chord(row.data(), msg.data(), 1.0, 2)), bits(-2.0)) << name(d);
    // cm: min(d + ((row − c) − msg)) = min(1+(4−1), 2+(0−2)) = 0.
    EXPECT_EQ(bits(k.fold_tree_cm(depth.data(), row.data(), 1.0, msg.data(), 2)), bits(0.0))
        << name(d);
    // mc: min(d + ((row − msg) − c)) = min(1+3, 2+(−2)) = 0.
    EXPECT_EQ(bits(k.fold_tree_mc(depth.data(), row.data(), msg.data(), 1.0, 2)), bits(0.0))
        << name(d);
  }
}

TEST(SimdGolden, FusedKernelPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    // sum_rows folds rows in order per element.
    const std::vector<double> r0 = {1.0, -2.0};
    const std::vector<double> r1 = {0.5, 0.5};
    const std::vector<double> r2 = {-1.0, 4.0};
    const std::vector<const double*> rows = {r0.data(), r1.data(), r2.data()};
    std::vector<double> dst(2, 0.0);
    k.sum_rows(dst.data(), rows.data(), 3, 2);
    EXPECT_EQ(bits(dst[0]), bits(0.5)) << name(d);
    EXPECT_EQ(bits(dst[1]), bits(2.5)) << name(d);

    const std::vector<double> block = {1.0, -1.0, 0.0, 2.0};
    std::vector<double> out(2, 99.0);

    // min_convolve2 computes base[i] = s·a[i] − b[i] inline: with s = 2,
    // a = {0.5, 1}, b = {2, −1} the bases are {−1, 3}.
    const std::vector<double> a = {0.5, 1.0};
    const std::vector<double> b = {2.0, -1.0};
    EXPECT_EQ(bits(k.min_convolve2(out.data(), block.data(), 2.0, a.data(), b.data(), 2, 2)),
              bits(-2.0))
        << name(d);
    EXPECT_EQ(bits(out[0]), bits(0.0)) << name(d);   // min(−1+1, 3+0)
    EXPECT_EQ(bits(out[1]), bits(-2.0)) << name(d);  // min(−1−1, 3+2)

    // joint_block: dst[a·cols+b] = (row_add[a] + col_add[b]) + m.
    const std::vector<double> row_add = {1.0, -1.0};
    const std::vector<double> col_add = {0.25, 0.5};
    std::vector<double> joint(4, 0.0);
    k.joint_block(joint.data(), col_add.data(), row_add.data(), block.data(), 2, 2);
    EXPECT_EQ(bits(joint[0]), bits(2.25)) << name(d);   // (1+0.25)+1
    EXPECT_EQ(bits(joint[1]), bits(0.5)) << name(d);    // (1+0.5)−1
    EXPECT_EQ(bits(joint[2]), bits(-0.75)) << name(d);  // (−1+0.25)+0
    EXPECT_EQ(bits(joint[3]), bits(1.5)) << name(d);    // (−1+0.5)+2
  }
}

TEST(SimdGolden, IntegerKernelPins) {
  for (const Dispatch d : supported_dispatches()) {
    const Kernels& k = kernels(d);
    // Hosts 2 and 5 marked; links target 1,2,3,5 → links 0 and 2 survive.
    std::vector<std::uint32_t> mark_bits(bitset_words(8), 0);
    bit_set(mark_bits.data(), 2);
    bit_set(mark_bits.data(), 5);
    const std::vector<std::uint32_t> to = {1, 2, 3, 5};
    std::vector<std::uint32_t> out(4, 0);
    ASSERT_EQ(k.gather_unset(to.data(), 4, mark_bits.data(), 7, out.data()), 2u) << name(d);
    EXPECT_EQ(out[0], 7u) << name(d);
    EXPECT_EQ(out[1], 9u) << name(d);

    // word < threshold accepts; word == threshold rejects (the integer
    // Bernoulli identity's strict inequality).
    const std::vector<std::uint64_t> thresholds = {10, 10, 0};
    const std::vector<std::uint32_t> link_to = {100, 200, 300};
    const std::vector<std::uint32_t> idx = {0, 1, 2};
    const std::vector<std::uint64_t> words = {9, 10, 0};
    ASSERT_EQ(k.accept_indexed(idx.data(), 3, link_to.data(), thresholds.data(), words.data(),
                               out.data()),
              1u)
        << name(d);
    EXPECT_EQ(out[0], 100u) << name(d);

    // fire_record packs (to << 1) | below-baseline.
    const std::vector<std::uint64_t> fire_words = {4, 7, 3};
    const std::vector<std::uint64_t> fire_thresholds = {10, 5, 5};
    const std::vector<std::uint32_t> fire_to = {6, 7, 8};
    ASSERT_EQ(k.fire_record(fire_words.data(), fire_thresholds.data(), fire_to.data(), 3,
                            /*baseline=*/5, out.data()),
              2u)
        << name(d);
    EXPECT_EQ(out[0], (6u << 1) | 1u) << name(d);  // 4 < 10 fires, 4 < 5 baseline
    EXPECT_EQ(out[1], (8u << 1) | 1u) << name(d);  // 7 ≥ 5 never fires; 3 < 5 does
  }
}

// ---------------------------------------------------------------------------
// End-to-end cross-dispatch: the four kernelized pillars must produce
// bit-identical results under every dispatch target.
// ---------------------------------------------------------------------------

mrf::Mrf random_mrf(std::size_t n, std::size_t labels, double edge_probability, Rng& rng) {
  mrf::Mrf model;
  for (std::size_t i = 0; i < n; ++i) {
    const mrf::VariableId v = model.add_variable(labels);
    for (auto& cost : model.unary(v)) cost = rng.uniform();
  }
  std::vector<mrf::Cost> data(labels * labels, 0.0);
  for (std::size_t a = 0; a < labels; ++a) {
    for (std::size_t b = a; b < labels; ++b) {
      const double value = a == b ? 1.0 : rng.uniform() * 0.6;
      data[a * labels + b] = value;
      data[b * labels + a] = value;
    }
  }
  const mrf::MatrixId m = model.add_matrix(labels, labels, std::move(data));
  for (mrf::VariableId u = 0; u < n; ++u) {
    for (mrf::VariableId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(edge_probability)) model.add_edge(u, v, m);
    }
  }
  return model;
}

TEST(SimdEndToEnd, TrwsAndBpBitIdenticalAcrossDispatches) {
  DispatchGuard guard;
  Rng rng(2024);
  const mrf::Mrf model = random_mrf(24, 5, 0.25, rng);
  mrf::SolveOptions options;
  options.max_iterations = 30;

  ASSERT_TRUE(set_active(Dispatch::Scalar));
  const mrf::SolveResult trws_ref = mrf::TrwsSolver().solve(model, options);
  const mrf::SolveResult bp_ref = mrf::BpSolver().solve(model, options);
  for (const Dispatch d : supported_dispatches()) {
    ASSERT_TRUE(set_active(d));
    const mrf::SolveResult trws = mrf::TrwsSolver().solve(model, options);
    EXPECT_EQ(bits(trws.energy), bits(trws_ref.energy)) << name(d);
    EXPECT_EQ(bits(trws.lower_bound), bits(trws_ref.lower_bound)) << name(d);
    EXPECT_EQ(trws.labels, trws_ref.labels) << name(d);
    EXPECT_EQ(trws.iterations, trws_ref.iterations) << name(d);
    const mrf::SolveResult bp = mrf::BpSolver().solve(model, options);
    EXPECT_EQ(bits(bp.energy), bits(bp_ref.energy)) << name(d);
    EXPECT_EQ(bp.labels, bp_ref.labels) << name(d);
    EXPECT_EQ(bp.iterations, bp_ref.iterations) << name(d);
  }
}

/// Hub-and-line network: host 0 links to everyone (degree 11 exercises the
/// 8-lane gather blocks and their tails), the rest form a line.
struct HubFixture {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;
  static constexpr int kHosts = 12;

  HubFixture() {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "A");
    b = catalog.add_product(service, "B");
    catalog.set_similarity(a, b, 0.5);
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < kHosts; ++i) {
      const core::HostId h = network->add_host("h" + std::to_string(i));
      network->add_service(h, service, {a, b});
    }
    for (core::HostId h = 1; h < kHosts; ++h) network->add_link(0, h);
    for (core::HostId h = 1; h + 1 < kHosts; ++h) network->add_link(h, h + 1);
  }

  [[nodiscard]] core::Assignment alternating() const {
    core::Assignment assignment(*network);
    for (core::HostId h = 0; h < kHosts; ++h) {
      assignment.assign(h, service, h % 2 == 0 ? a : b);
    }
    return assignment;
  }
};

TEST(SimdEndToEnd, WormMttcBitIdenticalAcrossDispatches) {
  DispatchGuard guard;
  const HubFixture f;
  const core::Assignment assignment = f.alternating();
  sim::SimulationParams params;
  params.model.p_avg = 0.06;

  ASSERT_TRUE(set_active(Dispatch::Scalar));
  const sim::CompiledPropagation ref_sim(assignment, params);
  const sim::MttcResult ref = ref_sim.mttc(0, 11, 150, 7, /*parallel=*/false);
  for (const Dispatch d : supported_dispatches()) {
    ASSERT_TRUE(set_active(d));
    const sim::CompiledPropagation sim(assignment, params);
    const sim::MttcResult got = sim.mttc(0, 11, 150, 7, /*parallel=*/false);
    EXPECT_EQ(bits(got.mean), bits(ref.mean)) << name(d);
    EXPECT_EQ(bits(got.std_dev), bits(ref.std_dev)) << name(d);
    EXPECT_EQ(got.censored, ref.censored) << name(d);
  }
}

TEST(SimdEndToEnd, ReliabilityMcBitIdenticalAcrossDispatches) {
  DispatchGuard guard;
  const HubFixture f;
  const core::Assignment assignment = f.alternating();
  bayes::InferenceOptions options;
  options.engine = bayes::InferenceEngine::MonteCarlo;
  options.mc_samples = 20000;
  options.seed = 5;
  options.parallel = false;

  ASSERT_TRUE(set_active(Dispatch::Scalar));
  const bayes::CompiledReliability ref_model(assignment, 0, {});
  const bayes::ReliabilitySweep ref = ref_model.solve_all(options);
  for (const Dispatch d : supported_dispatches()) {
    ASSERT_TRUE(set_active(d));
    const bayes::CompiledReliability model(assignment, 0, {});
    const bayes::ReliabilitySweep got = model.solve_all(options);
    ASSERT_EQ(got.p.size(), ref.p.size());
    for (std::size_t h = 0; h < ref.p.size(); ++h) {
      ASSERT_EQ(bits(got.p[h]), bits(ref.p[h])) << "p[" << h << "] under " << name(d);
      ASSERT_EQ(bits(got.p_baseline[h]), bits(ref.p_baseline[h]))
          << "p_baseline[" << h << "] under " << name(d);
    }
  }
}

}  // namespace
}  // namespace icsdiv::support::simd
