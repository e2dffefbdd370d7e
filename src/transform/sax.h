#ifndef HYDRA_TRANSFORM_SAX_H_
#define HYDRA_TRANSFORM_SAX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "distance/simd_dispatch.h"
#include "transform/paa.h"

namespace hydra {

// Symbolic Aggregate Approximation (Lin et al. 2003) and its indexable
// variant iSAX (Shieh & Keogh 2008).
//
// SAX quantizes each PAA value into one of `a` symbols using breakpoints
// chosen as standard-normal quantiles (z-normalized series make symbol
// usage roughly uniform). iSAX stores symbols at a maximum cardinality
// (2^max_bits) and lets a node address a coarser prefix of each symbol:
// a symbol with b active bits denotes the region between breakpoints of
// the cardinality-2^b alphabet. MinDist between a query PAA and an iSAX
// word is the segment-weighted distance to those regions and lower-bounds
// the true Euclidean distance.

// Inverse standard normal CDF (Acklam's rational approximation, |rel err|
// < 1.15e-9): the basis of the SAX breakpoint tables.
double InverseNormalCdf(double p);

// Breakpoints for an alphabet of `cardinality` symbols: cardinality − 1
// ascending cut points; symbol s covers (beta[s-1], beta[s]].
std::vector<double> SaxBreakpoints(size_t cardinality);

class SaxEncoder {
 public:
  // max_bits: bits per symbol at full resolution (cardinality 2^max_bits).
  SaxEncoder(size_t series_length, size_t segments, size_t max_bits);

  size_t segments() const { return paa_.segments(); }
  size_t max_bits() const { return max_bits_; }
  const Paa& paa() const { return paa_; }

  // Full-cardinality SAX word for a raw series (one byte-sized symbol per
  // segment; max_bits <= 16 supported, symbols stored as uint16).
  std::vector<uint16_t> Encode(std::span<const float> series) const;
  // Quantizes an already-computed PAA image.
  std::vector<uint16_t> EncodePaa(std::span<const double> paa) const;
  // The full-cardinality symbol of one PAA value: the number of
  // breakpoints b with !(v < b), which std::upper_bound over the
  // breakpoints counts (NaN counts them all). A table of equal-width
  // cells leaves only the breakpoints of v's cell to compare, at most
  // cell_span_ (1 at 8 bits), without a branch.
  uint16_t Symbol(double v) const {
    const size_t cell = CellOf(v);
    size_t symbol = cell_first_[cell];
    const size_t end = cell_first_[cell + 1];
    const double* beta = edges_.data() + 1;  // beta[end] is in bounds
    for (size_t j = 0; j < cell_span_; ++j) {
      symbol += static_cast<size_t>(symbol < end) &
                static_cast<size_t>(!(v < beta[symbol]));
    }
    return static_cast<uint16_t>(symbol);
  }

  // Squared MinDist from a query PAA image to an iSAX word whose segment s
  // uses bits[s] leading bits of word[s]. Lower-bounds squared Euclidean.
  double MinDistSqPaaToSax(std::span<const double> query_paa,
                           std::span<const uint16_t> word,
                           std::span<const uint8_t> bits) const;

  // Squared MinDist from a query PAA image to each of `out.size()`
  // full-cardinality words stored back to back at `words` (one Symbol per
  // segment, every segment at max_bits): MinDistSqPaaToSax with all bits
  // used, for the per-member words of a tree leaf, through the dispatched
  // sax_word_bounds_sq kernel. Lower-bounds each member's squared
  // Euclidean distance; 0 for a member whose PAA equals the query's. A
  // member whose partial sum passes `cutoff` gets that partial sum: above
  // `cutoff`, and still a lower bound.
  template <typename Sym>
  void MinDistSqPaaToWords(
      std::span<const double> query_paa, const Sym* words,
      std::span<double> out,
      double cutoff = std::numeric_limits<double>::infinity()) const {
    static_assert(sizeof(Sym) == 1 || sizeof(Sym) == 2);
    ActiveKernels().sax_word_bounds_sq(
        query_paa.data(), segment_weights_.data(), edges_.data(),
        query_paa.size(), words, sizeof(Sym), out.size(), cutoff,
        out.data());
  }

  // Breakpoint interval [lo, hi] covered by the `used_bits` leading bits
  // of `symbol` (full-cardinality symbol).
  void SymbolRegion(uint16_t symbol, uint8_t used_bits, double* lo,
                    double* hi) const;

 private:
  Paa paa_;
  size_t max_bits_;
  // breakpoints_[b] holds the cut points of the 2^(b+1)-symbol alphabet,
  // b in [0, max_bits).
  std::vector<std::vector<double>> breakpoints_;
  // Per-segment PAA lengths as doubles: the weights of the MinDist sum,
  // laid out for the dispatched clamped-distance and word-bound kernels.
  std::vector<double> segment_weights_;
  // The full-cardinality breakpoints between -inf and +inf: symbol s
  // covers [edges_[s], edges_[s + 1]].
  std::vector<double> edges_;
  // Symbol's cells: cell c holds the breakpoints [cell_first_[c],
  // cell_first_[c + 1]), at most cell_span_ of them.
  std::vector<uint16_t> cell_first_;
  size_t cell_span_ = 0;
  double cell_origin_ = 0.0;
  double cell_scale_ = 1.0;

  // The cell of `v`: floor((v - cell_origin_) * cell_scale_), clamped to
  // the table (NaN to the last cell). Monotone in v, so a breakpoint in
  // an earlier cell is <= v and one in a later cell is > v: only v's own
  // cell needs comparing.
  size_t CellOf(double v) const {
    const double last = static_cast<double>(cell_first_.size() - 2);
    double pos = (v - cell_origin_) * cell_scale_;
    pos = pos < last ? pos : last;
    pos = pos > 0.0 ? pos : 0.0;
    return static_cast<size_t>(pos);
  }
};

}  // namespace hydra

#endif  // HYDRA_TRANSFORM_SAX_H_
