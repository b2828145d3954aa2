// Kernel implementations for the portable SIMD layer (DESIGN.md §14).
//
// This is the ONLY translation unit in the project allowed to use raw
// vendor intrinsics (lint rule `raw-intrinsics`).  The AVX2 bodies carry
// `__attribute__((target("avx2")))` so the file builds with the plain
// baseline flags on any x86-64 toolchain and the vector code is only
// reached after a runtime `__builtin_cpu_supports("avx2")` check.  FMA is
// deliberately never used — the whole file compiles with
// `-ffp-contract=off` (set in src/CMakeLists.txt) and the AVX2 paths use
// separate multiply/add intrinsics, so scalar and vector arithmetic are
// instruction-for-instruction the same operation sequence per element.
//
// Scalar reference kernels are written in the exact form the vector
// instructions compute (operand order of min/max ternaries matches
// vminpd/vmaxpd tie behaviour); reductions canonicalise a zero result
// with `+ 0.0` so tree-order and sequential-order reductions agree
// bitwise on finite data.

#include "support/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if !defined(ICSDIV_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GNUC__)
#define ICSDIV_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if !defined(ICSDIV_SIMD_DISABLED) && defined(__aarch64__)
#define ICSDIV_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace icsdiv::support::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Scalar reference kernels.  Every ternary mirrors the vector instruction it
// is checked against: `x < m ? x : m` keeps `m` on ties exactly as
// `vminpd(x, m)` does.
// ---------------------------------------------------------------------------

void add_scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

double min_value_scalar(const double* v, std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) m = v[i] < m ? v[i] : m;
  return m + 0.0;
}

void sub_scalar_scalar(double* v, double c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] -= c;
}

double damp_update_scalar(double* out, const double* old_msg, double delta, double damping,
                          double keep, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double shifted = out[i] - delta;
    const double mixed = damping * old_msg[i] + keep * shifted;
    out[i] = mixed;
    const double diff = std::abs(mixed - old_msg[i]);
    acc = diff > acc ? diff : acc;
  }
  return acc;
}

double fold_chord_scalar(const double* row, const double* msg, double c, std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = (row[i] - msg[i]) - c;
    m = value < m ? value : m;
  }
  return m + 0.0;
}

double fold_tree_cm_scalar(const double* d, const double* row, double c, const double* msg,
                           std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = d[i] + ((row[i] - c) - msg[i]);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

double fold_tree_mc_scalar(const double* d, const double* row, const double* msg, double c,
                           std::size_t n) {
  double m = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = d[i] + ((row[i] - msg[i]) - c);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

void sum_rows_scalar(double* dst, const double* const* rows, std::size_t row_count,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double s = rows[0][j];
    for (std::size_t r = 1; r < row_count; ++r) s += rows[r][j];
    dst[j] = s;
  }
}

void joint_block_scalar(double* dst, const double* col_add, const double* row_add, const double* m,
                        std::size_t rows, std::size_t cols) {
  for (std::size_t a = 0; a < rows; ++a) {
    const double ra = row_add[a];
    const double* mrow = m + a * cols;
    double* drow = dst + a * cols;
    for (std::size_t b = 0; b < cols; ++b) drow[b] = (ra + col_add[b]) + mrow[b];
  }
}

// The per-row base s·a[i] − b[i] is evaluated as a plain scalar expression
// in every dispatch path (then broadcast), so the vector paths reproduce
// the scalar bit pattern by construction.
double min_convolve2_scalar(double* out, const double* rows, double s, const double* a,
                            const double* b, std::size_t in_count, std::size_t out_count) {
  for (std::size_t j = 0; j < out_count; ++j) {
    double m = kInf;
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];
      const double sum = base + rows[i * out_count + j];
      m = sum < m ? sum : m;
    }
    out[j] = m;
  }
  return min_value_scalar(out, out_count);
}

std::size_t gather_unset_scalar(const std::uint32_t* to, std::size_t n, const std::uint32_t* bits,
                                std::uint32_t base, std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[count] = base + static_cast<std::uint32_t>(i);
    count += bit_test(bits, to[i]) ? 0u : 1u;
  }
  return count;
}

std::size_t accept_indexed_scalar(const std::uint32_t* idx, std::size_t n, const std::uint32_t* to,
                                  const std::uint64_t* threshold, const std::uint64_t* words,
                                  std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t link = idx[i];
    out[count] = to[link];
    count += words[i] < threshold[link] ? 1u : 0u;
  }
  return count;
}

std::size_t fire_record_scalar(const std::uint64_t* words, const std::uint64_t* threshold,
                               const std::uint32_t* to, std::size_t n, std::uint64_t baseline,
                               std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = words[i];
    if (word >= threshold[i]) continue;
    out[count++] = (to[i] << 1) | (word < baseline ? 1u : 0u);
  }
  return count;
}

constexpr Kernels kScalarTable = {
    add_scalar,          min_value_scalar,      sub_scalar_scalar,  damp_update_scalar,
    fold_chord_scalar,   fold_tree_cm_scalar,   fold_tree_mc_scalar, sum_rows_scalar,
    joint_block_scalar,  min_convolve2_scalar,  gather_unset_scalar, accept_indexed_scalar,
    fire_record_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64, function-level target attribute, runtime-gated).
// ---------------------------------------------------------------------------

#if defined(ICSDIV_SIMD_AVX2)

#define ICSDIV_AVX2 __attribute__((target("avx2")))

// Lane-compaction LUT: perm[mask] is the vpermd control moving the set
// lanes of an 8-bit mask to the front, in ascending lane order.
struct Compress8Table {
  std::uint32_t perm[256][8];
};

constexpr Compress8Table make_compress8_table() {
  Compress8Table table{};
  for (int mask = 0; mask < 256; ++mask) {
    int packed = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask & (1 << lane)) != 0) {
        table.perm[mask][packed++] = static_cast<std::uint32_t>(lane);
      }
    }
    for (; packed < 8; ++packed) table.perm[mask][packed] = 0;
  }
  return table;
}

constexpr Compress8Table kCompress8 = make_compress8_table();

ICSDIV_AVX2 void add_avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

ICSDIV_AVX2 double horizontal_min(__m256d acc) {
  __m128d m = _mm_min_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(m);
}

ICSDIV_AVX2 double min_value_avx2(const double* v, std::size_t n) {
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) acc = _mm256_min_pd(_mm256_loadu_pd(v + i), acc);
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) m = v[i] < m ? v[i] : m;
  return m + 0.0;
}

ICSDIV_AVX2 void sub_scalar_avx2(double* v, double c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_sub_pd(_mm256_loadu_pd(v + i), vc));
  }
  for (; i < n; ++i) v[i] -= c;
}

ICSDIV_AVX2 double damp_update_avx2(double* out, const double* old_msg, double delta,
                                    double damping, double keep, std::size_t n) {
  const __m256d vdelta = _mm256_set1_pd(delta);
  const __m256d vdamp = _mm256_set1_pd(damping);
  const __m256d vkeep = _mm256_set1_pd(keep);
  const __m256d vsign = _mm256_set1_pd(-0.0);
  __m256d vacc = _mm256_setzero_pd();
  double acc = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vold = _mm256_loadu_pd(old_msg + i);
    const __m256d shifted = _mm256_sub_pd(_mm256_loadu_pd(out + i), vdelta);
    const __m256d mixed =
        _mm256_add_pd(_mm256_mul_pd(vdamp, vold), _mm256_mul_pd(vkeep, shifted));
    _mm256_storeu_pd(out + i, mixed);
    vacc = _mm256_max_pd(_mm256_andnot_pd(vsign, _mm256_sub_pd(mixed, vold)), vacc);
  }
  if (i != 0) {
    __m128d m = _mm_max_pd(_mm256_castpd256_pd128(vacc), _mm256_extractf128_pd(vacc, 1));
    m = _mm_max_sd(m, _mm_unpackhi_pd(m, m));
    acc = _mm_cvtsd_f64(m);
  }
  for (; i < n; ++i) {
    const double shifted = out[i] - delta;
    const double mixed = damping * old_msg[i] + keep * shifted;
    out[i] = mixed;
    const double diff = std::abs(mixed - old_msg[i]);
    acc = diff > acc ? diff : acc;
  }
  return acc;
}

ICSDIV_AVX2 double fold_chord_avx2(const double* row, const double* msg, double c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) {
      const __m256d value =
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(row + i), _mm256_loadu_pd(msg + i)), vc);
      acc = _mm256_min_pd(value, acc);
    }
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) {
    const double value = (row[i] - msg[i]) - c;
    m = value < m ? value : m;
  }
  return m + 0.0;
}

ICSDIV_AVX2 double fold_tree_cm_avx2(const double* d, const double* row, double c,
                                     const double* msg, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) {
      const __m256d pairwise =
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(row + i), vc), _mm256_loadu_pd(msg + i));
      acc = _mm256_min_pd(_mm256_add_pd(_mm256_loadu_pd(d + i), pairwise), acc);
    }
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) {
    const double value = d[i] + ((row[i] - c) - msg[i]);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

ICSDIV_AVX2 double fold_tree_mc_avx2(const double* d, const double* row, const double* msg,
                                     double c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    for (; i + 4 <= n; i += 4) {
      const __m256d pairwise =
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(row + i), _mm256_loadu_pd(msg + i)), vc);
      acc = _mm256_min_pd(_mm256_add_pd(_mm256_loadu_pd(d + i), pairwise), acc);
    }
    m = horizontal_min(acc);
  }
  for (; i < n; ++i) {
    const double value = d[i] + ((row[i] - msg[i]) - c);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

ICSDIV_AVX2 std::size_t gather_unset_avx2(const std::uint32_t* to, std::size_t n,
                                          const std::uint32_t* bits, std::uint32_t base,
                                          std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t i = 0;
  const __m256i kOne = _mm256_set1_epi32(1);
  const __m256i kLane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i kMask31 = _mm256_set1_epi32(31);
  for (; i + 8 <= n; i += 8) {
    const __m256i vto = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(to + i));
    const __m256i words =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(bits), _mm256_srli_epi32(vto, 5), 4);
    const __m256i bit =
        _mm256_and_si256(_mm256_srlv_epi32(words, _mm256_and_si256(vto, kMask31)), kOne);
    const __m256i unset = _mm256_cmpeq_epi32(bit, _mm256_setzero_si256());
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(unset))) & 0xFFu;
    const __m256i ids = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base + i)), kLane);
    const __m256i control =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kCompress8.perm[mask]));
    // Writes a full 8-lane block at out+count; count <= i here, so the
    // store stays inside out[0..n) — callers size `out` to n.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + count),
                        _mm256_permutevar8x32_epi32(ids, control));
    count += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) {
    out[count] = base + static_cast<std::uint32_t>(i);
    count += bit_test(bits, to[i]) ? 0u : 1u;
  }
  return count;
}

ICSDIV_AVX2 std::size_t accept_indexed_avx2(const std::uint32_t* idx, std::size_t n,
                                            const std::uint32_t* to,
                                            const std::uint64_t* threshold,
                                            const std::uint64_t* words, std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vidx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    // Thresholds and RNG words are < 2^53, so the signed 64-bit compare
    // is exact.
    const __m256i vthr =
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(threshold), vidx, 8);
    const __m256i vwords = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    unsigned mask = static_cast<unsigned>(
                        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vthr, vwords)))) &
                    0xFu;
    alignas(16) std::uint32_t targets[4];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(targets),
                     _mm_i32gather_epi32(reinterpret_cast<const int*>(to), vidx, 4));
    while (mask != 0) {
      out[count++] = targets[static_cast<unsigned>(__builtin_ctz(mask))];
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    const std::uint32_t link = idx[i];
    out[count] = to[link];
    count += words[i] < threshold[link] ? 1u : 0u;
  }
  return count;
}

ICSDIV_AVX2 std::size_t fire_record_avx2(const std::uint64_t* words, const std::uint64_t* threshold,
                                         const std::uint32_t* to, std::size_t n,
                                         std::uint64_t baseline, std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t i = 0;
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(baseline));
  for (; i + 4 <= n; i += 4) {
    const __m256i vwords = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i vthr = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(threshold + i));
    unsigned fired = static_cast<unsigned>(
                         _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vthr, vwords)))) &
                     0xFu;
    const unsigned below = static_cast<unsigned>(
                               _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vbase, vwords)))) &
                           0xFu;
    alignas(16) std::uint32_t targets[4];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(targets),
                     _mm_loadu_si128(reinterpret_cast<const __m128i*>(to + i)));
    while (fired != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(fired));
      out[count++] = (targets[lane] << 1) | ((below >> lane) & 1u);
      fired &= fired - 1;
    }
  }
  for (; i < n; ++i) {
    const std::uint64_t word = words[i];
    if (word >= threshold[i]) continue;
    out[count++] = (to[i] << 1) | (word < baseline ? 1u : 0u);
  }
  return count;
}

// Fused kernels: the label pools are tiny (L is typically 5), so these
// keep the 4-wide accumulator in a register across the whole row loop —
// the memory traffic is one read of each input and one write of dst.

ICSDIV_AVX2 void sum_rows_avx2(double* dst, const double* const* rows, std::size_t row_count,
                               std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d s = _mm256_loadu_pd(rows[0] + j);
    for (std::size_t r = 1; r < row_count; ++r) {
      s = _mm256_add_pd(s, _mm256_loadu_pd(rows[r] + j));
    }
    _mm256_storeu_pd(dst + j, s);
  }
  for (; j < n; ++j) {
    double s = rows[0][j];
    for (std::size_t r = 1; r < row_count; ++r) s += rows[r][j];
    dst[j] = s;
  }
}

ICSDIV_AVX2 void joint_block_avx2(double* dst, const double* col_add, const double* row_add,
                                  const double* m, std::size_t rows, std::size_t cols) {
  for (std::size_t a = 0; a < rows; ++a) {
    const __m256d ra = _mm256_set1_pd(row_add[a]);
    const double* mrow = m + a * cols;
    double* drow = dst + a * cols;
    std::size_t b = 0;
    for (; b + 4 <= cols; b += 4) {
      const __m256d left = _mm256_add_pd(ra, _mm256_loadu_pd(col_add + b));
      _mm256_storeu_pd(drow + b, _mm256_add_pd(left, _mm256_loadu_pd(mrow + b)));
    }
    const double ra_scalar = row_add[a];
    for (; b < cols; ++b) drow[b] = (ra_scalar + col_add[b]) + mrow[b];
  }
}

ICSDIV_AVX2 double min_convolve2_avx2(double* out, const double* rows, double s, const double* a,
                                      const double* b, std::size_t in_count,
                                      std::size_t out_count) {
  std::size_t j = 0;
  for (; j + 4 <= out_count; j += 4) {
    __m256d m = _mm256_set1_pd(kInf);
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];  // scalar, exactly as the reference
      const __m256d sum =
          _mm256_add_pd(_mm256_set1_pd(base), _mm256_loadu_pd(rows + i * out_count + j));
      m = _mm256_min_pd(sum, m);  // sum < m ? sum : m, like the scalar loop
    }
    _mm256_storeu_pd(out + j, m);
  }
  for (; j < out_count; ++j) {
    double m = kInf;
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];
      const double sum = base + rows[i * out_count + j];
      m = sum < m ? sum : m;
    }
    out[j] = m;
  }
  return min_value_avx2(out, out_count);
}

constexpr Kernels kAvx2Table = {
    add_avx2,          min_value_avx2,      sub_scalar_avx2,   damp_update_avx2,
    fold_chord_avx2,   fold_tree_cm_avx2,   fold_tree_mc_avx2, sum_rows_avx2,
    joint_block_avx2,  min_convolve2_avx2,  gather_unset_avx2, accept_indexed_avx2,
    fire_record_avx2,
};

#endif  // ICSDIV_SIMD_AVX2

// ---------------------------------------------------------------------------
// NEON kernels (aarch64; 2-wide doubles).  min/max use explicit
// compare+select (vbslq) rather than vminq/vmaxq so the tie and NaN
// behaviour matches the scalar ternaries exactly.  The integer kernels
// stay scalar on NEON — they are gather-bound and NEON has no gather.
// ---------------------------------------------------------------------------

#if defined(ICSDIV_SIMD_NEON)

void add_neon(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

double min_value_neon(const double* v, std::size_t n) {
  double m = kInf;
  std::size_t i = 0;
  if (n >= 2) {
    float64x2_t acc = vdupq_n_f64(kInf);
    for (; i + 2 <= n; i += 2) {
      const float64x2_t value = vld1q_f64(v + i);
      acc = vbslq_f64(vcltq_f64(value, acc), value, acc);
    }
    const double a0 = vgetq_lane_f64(acc, 0);
    const double a1 = vgetq_lane_f64(acc, 1);
    m = a0 < m ? a0 : m;
    m = a1 < m ? a1 : m;
  }
  for (; i < n; ++i) m = v[i] < m ? v[i] : m;
  return m + 0.0;
}

void sub_scalar_neon(double* v, double c, std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(v + i, vsubq_f64(vld1q_f64(v + i), vc));
  }
  for (; i < n; ++i) v[i] -= c;
}

double damp_update_neon(double* out, const double* old_msg, double delta, double damping,
                        double keep, std::size_t n) {
  const float64x2_t vdelta = vdupq_n_f64(delta);
  const float64x2_t vdamp = vdupq_n_f64(damping);
  const float64x2_t vkeep = vdupq_n_f64(keep);
  float64x2_t vacc = vdupq_n_f64(0.0);
  double acc = 0.0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vold = vld1q_f64(old_msg + i);
    const float64x2_t shifted = vsubq_f64(vld1q_f64(out + i), vdelta);
    const float64x2_t mixed = vaddq_f64(vmulq_f64(vdamp, vold), vmulq_f64(vkeep, shifted));
    vst1q_f64(out + i, mixed);
    const float64x2_t diff = vabsq_f64(vsubq_f64(mixed, vold));
    vacc = vbslq_f64(vcgtq_f64(diff, vacc), diff, vacc);
  }
  if (i != 0) {
    const double a0 = vgetq_lane_f64(vacc, 0);
    const double a1 = vgetq_lane_f64(vacc, 1);
    acc = a0 > acc ? a0 : acc;
    acc = a1 > acc ? a1 : acc;
  }
  for (; i < n; ++i) {
    const double shifted = out[i] - delta;
    const double mixed = damping * old_msg[i] + keep * shifted;
    out[i] = mixed;
    const double diff = std::abs(mixed - old_msg[i]);
    acc = diff > acc ? diff : acc;
  }
  return acc;
}

double fold_chord_neon(const double* row, const double* msg, double c, std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 2) {
    float64x2_t acc = vdupq_n_f64(kInf);
    for (; i + 2 <= n; i += 2) {
      const float64x2_t value = vsubq_f64(vsubq_f64(vld1q_f64(row + i), vld1q_f64(msg + i)), vc);
      acc = vbslq_f64(vcltq_f64(value, acc), value, acc);
    }
    const double a0 = vgetq_lane_f64(acc, 0);
    const double a1 = vgetq_lane_f64(acc, 1);
    m = a0 < m ? a0 : m;
    m = a1 < m ? a1 : m;
  }
  for (; i < n; ++i) {
    const double value = (row[i] - msg[i]) - c;
    m = value < m ? value : m;
  }
  return m + 0.0;
}

double fold_tree_cm_neon(const double* d, const double* row, double c, const double* msg,
                         std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 2) {
    float64x2_t acc = vdupq_n_f64(kInf);
    for (; i + 2 <= n; i += 2) {
      const float64x2_t pairwise =
          vsubq_f64(vsubq_f64(vld1q_f64(row + i), vc), vld1q_f64(msg + i));
      const float64x2_t value = vaddq_f64(vld1q_f64(d + i), pairwise);
      acc = vbslq_f64(vcltq_f64(value, acc), value, acc);
    }
    const double a0 = vgetq_lane_f64(acc, 0);
    const double a1 = vgetq_lane_f64(acc, 1);
    m = a0 < m ? a0 : m;
    m = a1 < m ? a1 : m;
  }
  for (; i < n; ++i) {
    const double value = d[i] + ((row[i] - c) - msg[i]);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

double fold_tree_mc_neon(const double* d, const double* row, const double* msg, double c,
                         std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  double m = kInf;
  std::size_t i = 0;
  if (n >= 2) {
    float64x2_t acc = vdupq_n_f64(kInf);
    for (; i + 2 <= n; i += 2) {
      const float64x2_t pairwise =
          vsubq_f64(vsubq_f64(vld1q_f64(row + i), vld1q_f64(msg + i)), vc);
      const float64x2_t value = vaddq_f64(vld1q_f64(d + i), pairwise);
      acc = vbslq_f64(vcltq_f64(value, acc), value, acc);
    }
    const double a0 = vgetq_lane_f64(acc, 0);
    const double a1 = vgetq_lane_f64(acc, 1);
    m = a0 < m ? a0 : m;
    m = a1 < m ? a1 : m;
  }
  for (; i < n; ++i) {
    const double value = d[i] + ((row[i] - msg[i]) - c);
    m = value < m ? value : m;
  }
  return m + 0.0;
}

void sum_rows_neon(double* dst, const double* const* rows, std::size_t row_count, std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    float64x2_t s = vld1q_f64(rows[0] + j);
    for (std::size_t r = 1; r < row_count; ++r) s = vaddq_f64(s, vld1q_f64(rows[r] + j));
    vst1q_f64(dst + j, s);
  }
  for (; j < n; ++j) {
    double s = rows[0][j];
    for (std::size_t r = 1; r < row_count; ++r) s += rows[r][j];
    dst[j] = s;
  }
}

void joint_block_neon(double* dst, const double* col_add, const double* row_add, const double* m,
                      std::size_t rows, std::size_t cols) {
  for (std::size_t a = 0; a < rows; ++a) {
    const float64x2_t ra = vdupq_n_f64(row_add[a]);
    const double* mrow = m + a * cols;
    double* drow = dst + a * cols;
    std::size_t b = 0;
    for (; b + 2 <= cols; b += 2) {
      const float64x2_t left = vaddq_f64(ra, vld1q_f64(col_add + b));
      vst1q_f64(drow + b, vaddq_f64(left, vld1q_f64(mrow + b)));
    }
    const double ra_scalar = row_add[a];
    for (; b < cols; ++b) drow[b] = (ra_scalar + col_add[b]) + mrow[b];
  }
}

double min_convolve2_neon(double* out, const double* rows, double s, const double* a,
                          const double* b, std::size_t in_count, std::size_t out_count) {
  std::size_t j = 0;
  for (; j + 2 <= out_count; j += 2) {
    float64x2_t m = vdupq_n_f64(kInf);
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];  // scalar, exactly as the reference
      const float64x2_t sum = vaddq_f64(vdupq_n_f64(base), vld1q_f64(rows + i * out_count + j));
      m = vbslq_f64(vcltq_f64(sum, m), sum, m);  // sum < m ? sum : m
    }
    vst1q_f64(out + j, m);
  }
  for (; j < out_count; ++j) {
    double m = kInf;
    for (std::size_t i = 0; i < in_count; ++i) {
      const double base = s * a[i] - b[i];
      const double sum = base + rows[i * out_count + j];
      m = sum < m ? sum : m;
    }
    out[j] = m;
  }
  return min_value_neon(out, out_count);
}

constexpr Kernels kNeonTable = {
    add_neon,            min_value_neon,        sub_scalar_neon,     damp_update_neon,
    fold_chord_neon,     fold_tree_cm_neon,     fold_tree_mc_neon,   sum_rows_neon,
    joint_block_neon,    min_convolve2_neon,    gather_unset_scalar, accept_indexed_scalar,
    fire_record_scalar,
};

#endif  // ICSDIV_SIMD_NEON

Dispatch detect_default() {
  Dispatch best = Dispatch::Scalar;
#if defined(ICSDIV_SIMD_NEON)
  best = Dispatch::Neon;
#elif defined(ICSDIV_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) best = Dispatch::Avx2;
#endif
  if (const char* env = std::getenv("ICSDIV_SIMD")) {
    Dispatch requested = Dispatch::Scalar;
    if (parse_dispatch(env, requested) && supported(requested)) best = requested;
  }
  return best;
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{static_cast<int>(detect_default())};
  return slot;
}

}  // namespace

const Kernels& kernels(Dispatch dispatch) noexcept {
  switch (dispatch) {
    case Dispatch::Avx2:
#if defined(ICSDIV_SIMD_AVX2)
      if (__builtin_cpu_supports("avx2")) return kAvx2Table;
#endif
      return kScalarTable;
    case Dispatch::Neon:
#if defined(ICSDIV_SIMD_NEON)
      return kNeonTable;
#else
      return kScalarTable;
#endif
    case Dispatch::Scalar:
      return kScalarTable;
  }
  return kScalarTable;
}

const Kernels& kernels() noexcept { return kernels(active()); }

Dispatch active() noexcept {
  return static_cast<Dispatch>(active_slot().load(std::memory_order_relaxed));
}

bool set_active(Dispatch dispatch) noexcept {
  if (!supported(dispatch)) return false;
  active_slot().store(static_cast<int>(dispatch), std::memory_order_relaxed);
  return true;
}

bool supported(Dispatch dispatch) noexcept {
  switch (dispatch) {
    case Dispatch::Scalar:
      return true;
    case Dispatch::Avx2:
#if defined(ICSDIV_SIMD_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Dispatch::Neon:
#if defined(ICSDIV_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* name(Dispatch dispatch) noexcept {
  switch (dispatch) {
    case Dispatch::Scalar:
      return "scalar";
    case Dispatch::Avx2:
      return "avx2";
    case Dispatch::Neon:
      return "neon";
  }
  return "scalar";
}

bool parse_dispatch(const char* text, Dispatch& out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0 || std::strcmp(text, "off") == 0) {
    out = Dispatch::Scalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = Dispatch::Avx2;
    return true;
  }
  if (std::strcmp(text, "neon") == 0) {
    out = Dispatch::Neon;
    return true;
  }
  return false;
}

}  // namespace icsdiv::support::simd
