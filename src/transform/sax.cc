#include "transform/sax.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/simd_dispatch.h"

namespace hydra {

double InverseNormalCdf(double p) {
  // Acklam's algorithm: rational approximations in a central region and
  // two tails, standard for breakpoint generation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

std::vector<double> SaxBreakpoints(size_t cardinality) {
  std::vector<double> beta;
  if (cardinality < 2) return beta;
  beta.reserve(cardinality - 1);
  for (size_t i = 1; i < cardinality; ++i) {
    beta.push_back(InverseNormalCdf(static_cast<double>(i) /
                                    static_cast<double>(cardinality)));
  }
  return beta;
}

SaxEncoder::SaxEncoder(size_t series_length, size_t segments, size_t max_bits)
    : paa_(series_length, segments), max_bits_(std::min<size_t>(max_bits, 16)) {
  if (max_bits_ == 0) max_bits_ = 1;
  breakpoints_.resize(max_bits_);
  for (size_t b = 0; b < max_bits_; ++b) {
    breakpoints_[b] = SaxBreakpoints(size_t{1} << (b + 1));
  }
  segment_weights_.resize(paa_.segments());
  for (size_t s = 0; s < paa_.segments(); ++s) {
    segment_weights_[s] = static_cast<double>(paa_.SegmentLength(s));
  }
  const std::vector<double>& beta = breakpoints_[max_bits_ - 1];
  edges_.reserve(beta.size() + 2);
  edges_.push_back(-std::numeric_limits<double>::infinity());
  edges_.insert(edges_.end(), beta.begin(), beta.end());
  edges_.push_back(std::numeric_limits<double>::infinity());
  // Four cells per breakpoint over [beta.front(), beta.back()]: the
  // breakpoints are densest in the middle, where a cell is then narrower
  // than their spacing, so no cell holds more than one or two.
  const size_t cells = 4 * beta.size();
  cell_origin_ = beta.front();
  if (beta.back() > beta.front()) {
    cell_scale_ = static_cast<double>(cells) / (beta.back() - beta.front());
  }
  cell_first_.assign(cells + 1, 0);
  for (double b : beta) ++cell_first_[CellOf(b) + 1];
  for (size_t c = 0; c < cells; ++c) {
    cell_span_ = std::max<size_t>(cell_span_, cell_first_[c + 1]);
    cell_first_[c + 1] += cell_first_[c];
  }
}

std::vector<uint16_t> SaxEncoder::Encode(std::span<const float> series) const {
  std::vector<double> paa = paa_.Transform(series);
  return EncodePaa(paa);
}

std::vector<uint16_t> SaxEncoder::EncodePaa(
    std::span<const double> paa) const {
  std::vector<uint16_t> word(paa.size());
  for (size_t s = 0; s < paa.size(); ++s) word[s] = Symbol(paa[s]);
  return word;
}

void SaxEncoder::SymbolRegion(uint16_t symbol, uint8_t used_bits, double* lo,
                              double* hi) const {
  if (used_bits == 0) {
    *lo = -std::numeric_limits<double>::infinity();
    *hi = std::numeric_limits<double>::infinity();
    return;
  }
  size_t bits = std::min<size_t>(used_bits, max_bits_);
  // Leading `bits` bits of the full-resolution symbol select a region of
  // the 2^bits alphabet.
  uint16_t coarse = static_cast<uint16_t>(symbol >> (max_bits_ - bits));
  const std::vector<double>& beta = breakpoints_[bits - 1];
  *lo = coarse == 0 ? -std::numeric_limits<double>::infinity()
                    : beta[coarse - 1];
  *hi = coarse == beta.size() ? std::numeric_limits<double>::infinity()
                              : beta[coarse];
}

double SaxEncoder::MinDistSqPaaToSax(std::span<const double> query_paa,
                                     std::span<const uint16_t> word,
                                     std::span<const uint8_t> bits) const {
  // Gather the per-segment breakpoint intervals (cheap table lookups),
  // then hand the weighted clamped-distance sum to the dispatched SIMD
  // kernel. Segments rarely exceed 64; spill to the heap if they do.
  const size_t n = query_paa.size();
  double lo_stack[64];
  double hi_stack[64];
  std::vector<double> spill;
  double* lo = lo_stack;
  double* hi = hi_stack;
  if (n > 64) {
    spill.resize(2 * n);
    lo = spill.data();
    hi = spill.data() + n;
  }
  for (size_t s = 0; s < n; ++s) {
    SymbolRegion(word[s], bits[s], &lo[s], &hi[s]);
  }
  return ActiveKernels().weighted_clamped_dist_sq(
      query_paa.data(), lo, hi, segment_weights_.data(), n);
}

}  // namespace hydra
