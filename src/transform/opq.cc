#include "transform/opq.h"

#include <algorithm>
#include <cmath>

namespace hydra {
namespace matrix_internal {

void JacobiSvd(const std::vector<double>& a, size_t n, std::vector<double>* u,
               std::vector<double>* s, std::vector<double>* vt) {
  // One-sided Jacobi: orthogonalize the columns of W (initialized to A) by
  // plane rotations accumulated into V; then U = W / column norms.
  std::vector<double> w = a;           // working copy, row-major n×n
  std::vector<double> v(n * n, 0.0);   // accumulates right rotations
  for (size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  const size_t max_sweeps = 60;
  const double eps = 1e-12;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        // Column inner products.
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (size_t i = 0; i < n; ++i) {
          double wp = w[i * n + p], wq = w[i * n + q];
          app += wp * wp;
          aqq += wq * wq;
          apq += wp * wq;
        }
        off = std::max(off, std::abs(apq) / (std::sqrt(app * aqq) + eps));
        if (std::abs(apq) < eps * std::sqrt(app * aqq) + eps) continue;
        // Jacobi rotation zeroing the (p, q) inner product.
        double tau = (aqq - app) / (2.0 * apq);
        double t = (tau >= 0.0 ? 1.0 : -1.0) /
                   (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double sn = c * t;
        for (size_t i = 0; i < n; ++i) {
          double wp = w[i * n + p], wq = w[i * n + q];
          w[i * n + p] = c * wp - sn * wq;
          w[i * n + q] = sn * wp + c * wq;
          double vp = v[i * n + p], vq = v[i * n + q];
          v[i * n + p] = c * vp - sn * vq;
          v[i * n + q] = sn * vp + c * vq;
        }
      }
    }
    if (off < 1e-10) break;
  }

  s->assign(n, 0.0);
  u->assign(n * n, 0.0);
  vt->assign(n * n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (size_t i = 0; i < n; ++i) norm += w[i * n + j] * w[i * n + j];
    norm = std::sqrt(norm);
    (*s)[j] = norm;
    if (norm > eps) {
      for (size_t i = 0; i < n; ++i) (*u)[i * n + j] = w[i * n + j] / norm;
    } else {
      // Degenerate column: fill with a unit vector to keep U orthogonal
      // enough for the Procrustes use (S ~ 0 makes the choice irrelevant).
      (*u)[j * n + j] = 1.0;
    }
    for (size_t i = 0; i < n; ++i) (*vt)[j * n + i] = v[i * n + j];
  }
}

}  // namespace matrix_internal

Result<OptimizedProductQuantizer> OptimizedProductQuantizer::Train(
    std::span<const float> train, size_t dim, const OpqOptions& options,
    Rng& rng) {
  if (dim == 0 || train.empty() || train.size() % dim != 0) {
    return Status::InvalidArgument("OPQ train data shape invalid");
  }
  const size_t n = train.size() / dim;

  OptimizedProductQuantizer opq;
  opq.dim_ = dim;
  // R starts as identity: iteration 0 trains plain PQ.
  opq.rotation_.assign(dim * dim, 0.0);
  for (size_t i = 0; i < dim; ++i) opq.rotation_[i * dim + i] = 1.0;

  std::vector<float> rotated(n * dim);
  std::vector<float> reconstructed(n * dim);
  std::vector<uint16_t> codes;

  for (size_t outer = 0; outer < std::max<size_t>(options.outer_iterations, 1);
       ++outer) {
    // Rotate the training set: Y = R · X.
    for (size_t i = 0; i < n; ++i) {
      opq.Rotate(train.subspan(i * dim, dim),
                 std::span<float>(rotated.data() + i * dim, dim));
    }
    HYDRA_ASSIGN_OR_RETURN(
        opq.pq_, ProductQuantizer::Train(rotated, dim, options.pq, rng));
    if (outer + 1 == std::max<size_t>(options.outer_iterations, 1)) break;

    // Reconstruction X̂ of the rotated data.
    codes.resize(opq.pq_.num_subquantizers());
    for (size_t i = 0; i < n; ++i) {
      opq.pq_.Encode(std::span<const float>(rotated.data() + i * dim, dim),
                     codes);
      opq.pq_.Decode(codes,
                     std::span<float>(reconstructed.data() + i * dim, dim));
    }

    // Procrustes: C = Σ_i x_i · x̂_iᵀ (dim × dim), R = V · Uᵀ where
    // C = U·S·Vᵀ. Note x is the *unrotated* input.
    std::vector<double> c(dim * dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t r = 0; r < dim; ++r) {
        double xr = train[i * dim + r];
        if (xr == 0.0) continue;
        for (size_t cc = 0; cc < dim; ++cc) {
          c[r * dim + cc] += xr * reconstructed[i * dim + cc];
        }
      }
    }
    std::vector<double> u, s, vt;
    matrix_internal::JacobiSvd(c, dim, &u, &s, &vt);
    // R = V·Uᵀ, i.e. R[r][c] = Σ_k V[r][k]·U[c][k] = Σ_k vt[k][r]·u[c][k].
    for (size_t r = 0; r < dim; ++r) {
      for (size_t cc = 0; cc < dim; ++cc) {
        double sum = 0.0;
        for (size_t k = 0; k < dim; ++k) {
          sum += vt[k * dim + r] * u[cc * dim + k];
        }
        // New rotation maps x to the space PQ was trained in: y = R·x with
        // R chosen so R·x ≈ x̂; row-major R[output r][input cc].
        opq.rotation_[r * dim + cc] = sum;
      }
    }
  }
  return opq;
}

void OptimizedProductQuantizer::Rotate(std::span<const float> v,
                                       std::span<float> out) const {
  for (size_t r = 0; r < dim_; ++r) {
    double sum = 0.0;
    const double* row = rotation_.data() + r * dim_;
    for (size_t c = 0; c < dim_; ++c) sum += row[c] * v[c];
    out[r] = static_cast<float>(sum);
  }
}

std::vector<float> OptimizedProductQuantizer::Rotate(
    std::span<const float> v) const {
  std::vector<float> out(dim_);
  Rotate(v, out);
  return out;
}

std::vector<uint16_t> OptimizedProductQuantizer::Encode(
    std::span<const float> v) const {
  return pq_.Encode(Rotate(v));
}

std::vector<double> OptimizedProductQuantizer::AdcTable(
    std::span<const float> query) const {
  return pq_.AdcTable(Rotate(query));
}

}  // namespace hydra
