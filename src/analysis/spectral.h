// Spectral analysis (Section IV-B): the paper fits a power law to the
// largest eigenvalues of the graph Laplacian, "computed using the power
// iteration method in existing solvers". We implement the symmetric
// Laplacian L = D - A of the undirected projection (A_uv = 1 iff u->v or
// v->u) and extract the top-k eigenvalues with a Lanczos iteration using
// full reorthogonalization, plus a plain power-iteration for the single
// largest eigenvalue.
//
// Parallelism and determinism: the Laplacian matvec runs over node chunks
// and the reorthogonalization over basis rows (h = Qᵀw) and element chunks
// (w -= Q·h). Every inner product goes through one fixed-order dot kernel
// and every element of w takes the basis rows in ascending order, so the
// eigenvalues are bit-identical at any thread count.

#ifndef ELITENET_ANALYSIS_SPECTRAL_H_
#define ELITENET_ANALYSIS_SPECTRAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/rng.h"
#include "util/status.h"

namespace elitenet {
namespace analysis {

/// Matrix-free operator for L = D - A on the undirected projection.
///
/// Stores only the reciprocal-edge intersection lists (out ∩ in per node)
/// so the matvec runs off the original CSR without materializing union
/// adjacency: (Ax)_u = Σ_{out} x_v + Σ_{in} x_v - Σ_{recip} x_v.
class LaplacianOperator {
 public:
  explicit LaplacianOperator(const graph::DiGraph& g);

  uint32_t dimension() const { return static_cast<uint32_t>(degree_.size()); }

  /// Undirected degree of u.
  double degree(graph::NodeId u) const { return degree_[u]; }

  /// y = L x. Requires x.size() == y->size() == dimension(). Runs in
  /// parallel over node chunks; each y[u] is one task's sum, so the result
  /// is bit-identical at any thread count.
  void Apply(std::span<const double> x, std::vector<double>* y) const;

 private:
  const graph::DiGraph& g_;
  std::vector<double> degree_;
  /// CSR of reciprocal neighbors (v in out(u) ∩ in(u)).
  std::vector<uint64_t> recip_offsets_;
  std::vector<graph::NodeId> recip_targets_;
};

struct LanczosOptions {
  /// Number of largest eigenvalues requested.
  uint32_t k = 100;
  /// Krylov subspace dimension; 0 = automatic (k + 40, capped by n).
  uint32_t subspace = 0;
  uint64_t seed = 7;
};

struct LanczosResult {
  /// Largest Ritz values, descending. The leading values converge to
  /// eigenvalues rapidly; accuracy degrades toward the k-th (interior
  /// Ritz values of a (k + margin)-dimensional Krylov space are
  /// approximations). Raise `subspace` for tighter interior accuracy.
  /// May hold fewer than k values if the Krylov space exhausted.
  std::vector<double> eigenvalues;
  uint32_t iterations = 0;
};

/// Top-k eigenvalues of the Laplacian via Lanczos with full
/// reorthogonalization: two passes of blocked classical Gram-Schmidt
/// (CGS2) against the whole basis each step. The basis is one contiguous
/// m x n buffer (about 23 MB at n = 10k, m = 290). The Laplacian is PSD so
/// all values are >= 0.
Result<LanczosResult> TopLaplacianEigenvalues(const graph::DiGraph& g,
                                              const LanczosOptions& options = {});

/// Largest eigenvalue by straightforward power iteration (reference
/// implementation used in tests to validate Lanczos, and the method the
/// paper names).
Result<double> PowerIterationLargest(const LaplacianOperator& op,
                                     int max_iterations = 1000,
                                     double tolerance = 1e-10,
                                     uint64_t seed = 7);

/// Eigenvalues of a symmetric tridiagonal matrix (diag, offdiag) by the
/// implicit QL algorithm, ascending. offdiag has diag.size()-1 entries.
/// Exposed for tests.
Result<std::vector<double>> SymmetricTridiagonalEigenvalues(
    std::vector<double> diag, std::vector<double> offdiag);

}  // namespace analysis
}  // namespace elitenet

#endif  // ELITENET_ANALYSIS_SPECTRAL_H_
