#include "analysis/spectral.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/check.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace analysis {

using graph::DiGraph;
using graph::NodeId;

namespace {

// Basis rows per h = Qᵀw task, and vector elements per w -= Q·h task.
// Neither affects results: each h[r] is one whole-row Dot, and each w[i]
// subtracts the rows in ascending order whatever chunk it falls in.
constexpr size_t kRowGrain = 4;
constexpr size_t kElementGrain = 512;

// The one dot kernel: every inner product and norm in this file goes
// through it. Eight independent accumulators break the add-latency chain
// and let the compiler vectorize; they combine in a fixed tree, so the
// summation order depends only on n.
double Dot(const double* a, const double* b, size_t n) {
  constexpr size_t kLanes = 8;
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  for (size_t l = 0; i < n; ++i, ++l) acc[l] += a[i] * b[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// One pass of blocked classical Gram-Schmidt: w -= Q (Qᵀ w), where Q is
// `rows` contiguous basis rows of length n. h = Qᵀw runs in parallel over
// rows into h[0, rows); the subtraction runs in parallel over element
// chunks, each element taking the rows in ascending order (four per sweep).
void ProjectOut(const double* q, size_t rows, size_t n, double* w,
                double* h) {
  util::ParallelFor(0, rows, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) h[r] = Dot(q + r * n, w, n);
  });
  util::ParallelFor(0, n, kElementGrain, [&](size_t lo, size_t hi) {
    size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const double* q0 = q + r * n;
      const double* q1 = q0 + n;
      const double* q2 = q1 + n;
      const double* q3 = q2 + n;
      const double h0 = h[r], h1 = h[r + 1], h2 = h[r + 2], h3 = h[r + 3];
      for (size_t i = lo; i < hi; ++i) {
        w[i] = (((w[i] - h0 * q0[i]) - h1 * q1[i]) - h2 * q2[i]) -
               h3 * q3[i];
      }
    }
    for (; r < rows; ++r) {
      const double* qr = q + r * n;
      const double hr = h[r];
      for (size_t i = lo; i < hi; ++i) w[i] -= hr * qr[i];
    }
  });
}

}  // namespace

LaplacianOperator::LaplacianOperator(const DiGraph& g) : g_(g) {
  const NodeId n = g.num_nodes();
  degree_.assign(n, 0.0);
  recip_offsets_.assign(n + 1, 0);

  // First pass: count reciprocal neighbors per node.
  std::vector<uint32_t> recip_count(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto outs = g.OutNeighbors(u);
    const auto ins = g.InNeighbors(u);
    size_t i = 0, j = 0;
    while (i < outs.size() && j < ins.size()) {
      if (outs[i] < ins[j]) {
        ++i;
      } else if (outs[i] > ins[j]) {
        ++j;
      } else {
        ++recip_count[u];
        ++i;
        ++j;
      }
    }
    degree_[u] = static_cast<double>(outs.size()) +
                 static_cast<double>(ins.size()) -
                 static_cast<double>(recip_count[u]);
  }
  for (NodeId u = 0; u < n; ++u) {
    recip_offsets_[u + 1] = recip_offsets_[u] + recip_count[u];
  }
  recip_targets_.resize(recip_offsets_[n]);
  for (NodeId u = 0; u < n; ++u) {
    const auto outs = g.OutNeighbors(u);
    const auto ins = g.InNeighbors(u);
    size_t i = 0, j = 0;
    uint64_t w = recip_offsets_[u];
    while (i < outs.size() && j < ins.size()) {
      if (outs[i] < ins[j]) {
        ++i;
      } else if (outs[i] > ins[j]) {
        ++j;
      } else {
        recip_targets_[w++] = outs[i];
        ++i;
        ++j;
      }
    }
  }
}

void LaplacianOperator::Apply(std::span<const double> x,
                              std::vector<double>* y) const {
  const NodeId n = dimension();
  EN_CHECK(x.size() == n);
  EN_CHECK(y->size() == n);
  util::ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t u = lo; u < hi; ++u) {
      double acc = degree_[u] * x[u];
      for (NodeId v : g_.OutNeighbors(u)) acc -= x[v];
      for (NodeId v : g_.InNeighbors(u)) acc -= x[v];
      for (uint64_t e = recip_offsets_[u]; e < recip_offsets_[u + 1]; ++e) {
        acc += x[recip_targets_[e]];  // undo the double subtraction
      }
      (*y)[u] = acc;
    }
  });
}

Result<std::vector<double>> SymmetricTridiagonalEigenvalues(
    std::vector<double> diag, std::vector<double> offdiag) {
  const size_t n = diag.size();
  if (n == 0) return Status::InvalidArgument("empty matrix");
  if (offdiag.size() + 1 != n) {
    return Status::InvalidArgument("offdiag must have n-1 entries");
  }
  if (n == 1) return std::vector<double>{diag[0]};

  // Implicit-shift QL (tql1-style). e is padded to length n.
  std::vector<double>& d = diag;
  std::vector<double> e(offdiag.begin(), offdiag.end());
  e.push_back(0.0);

  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (++iter == 50) {
          return Status::Internal("tridiagonal QL failed to converge");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        for (size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  std::sort(d.begin(), d.end());
  return d;
}

Result<LanczosResult> TopLaplacianEigenvalues(const DiGraph& g,
                                              const LanczosOptions& options) {
  ELITENET_SPAN("analysis.lanczos");
  const NodeId n = g.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (options.k == 0) return Status::InvalidArgument("k must be positive");

  const LaplacianOperator op(g);
  uint32_t m = options.subspace != 0 ? options.subspace : options.k + 40;
  m = std::min<uint32_t>(m, n);
  m = std::max<uint32_t>(m, std::min<uint32_t>(options.k, n));

  // Lanczos vectors v_1..v_j as rows of one m x n row-major buffer.
  std::vector<double> basis;
  basis.reserve(static_cast<size_t>(m) * n);
  std::vector<double> alpha, beta;  // T diagonal / off-diagonal
  std::vector<double> h(m);         // Qᵀw scratch

  // Initial random unit vector.
  util::Rng rng(options.seed);
  std::vector<double> w(n);
  for (double& x : w) x = rng.Normal();
  double norm = std::sqrt(Dot(w.data(), w.data(), n));
  for (double& x : w) x /= norm;
  basis.insert(basis.end(), w.begin(), w.end());

  for (uint32_t j = 0; j < m; ++j) {
    const double* vj = basis.data() + static_cast<size_t>(j) * n;
    op.Apply({vj, n}, &w);
    const double a = Dot(w.data(), vj, n);
    alpha.push_back(a);

    // w -= a * v_j + beta_{j-1} * v_{j-1}
    for (NodeId i = 0; i < n; ++i) w[i] -= a * vj[i];
    if (j > 0) {
      const double b = beta[j - 1];
      const double* vp = vj - n;
      for (NodeId i = 0; i < n; ++i) w[i] -= b * vp[i];
    }
    // Full reorthogonalization against v_1..v_j: two passes of blocked
    // classical Gram-Schmidt (CGS2, the DGKS-style scheme ARPACK uses).
    for (int pass = 0; pass < 2; ++pass) {
      ProjectOut(basis.data(), j + 1, n, w.data(), h.data());
    }

    const double b = std::sqrt(Dot(w.data(), w.data(), n));
    if (j + 1 == m) break;  // T is complete
    if (b < 1e-12) {
      // Invariant subspace found: the Krylov space is exhausted. The
      // eigenvalues of the current T are exact; stop early.
      break;
    }
    beta.push_back(b);
    for (double& x : w) x /= b;
    basis.insert(basis.end(), w.begin(), w.end());
  }

  EN_ASSIGN_OR_RETURN(std::vector<double> evals,
                      SymmetricTridiagonalEigenvalues(alpha, beta));
  std::sort(evals.begin(), evals.end(), std::greater<double>());
  // The Laplacian is PSD; clamp tiny negative round-off.
  for (double& ev : evals) {
    if (ev < 0.0 && ev > -1e-9) ev = 0.0;
  }
  LanczosResult out;
  const size_t take = std::min<size_t>(options.k, evals.size());
  out.eigenvalues.assign(evals.begin(), evals.begin() + take);
  out.iterations = static_cast<uint32_t>(alpha.size());
  return out;
}

Result<double> PowerIterationLargest(const LaplacianOperator& op,
                                     int max_iterations, double tolerance,
                                     uint64_t seed) {
  const uint32_t n = op.dimension();
  if (n == 0) return Status::InvalidArgument("empty operator");
  util::Rng rng(seed);
  std::vector<double> v(n), w(n);
  for (double& x : v) x = rng.Normal();

  double lambda = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    op.Apply(v, &w);
    const double norm = std::sqrt(Dot(w.data(), w.data(), n));
    if (norm == 0.0) return 0.0;  // zero operator (edgeless graph)
    const double rayleigh = Dot(w.data(), v.data(), n);
    for (uint32_t i = 0; i < n; ++i) v[i] = w[i] / norm;
    if (std::fabs(rayleigh - lambda) <=
        tolerance * std::max(1.0, std::fabs(rayleigh))) {
      return rayleigh;
    }
    lambda = rayleigh;
  }
  return lambda;
}

}  // namespace analysis
}  // namespace elitenet
