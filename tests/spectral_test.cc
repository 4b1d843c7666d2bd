#include "analysis/spectral.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "gen/verified_network.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace elitenet {
namespace analysis {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

DiGraph Build(NodeId n,
              const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder b(n);
  EXPECT_TRUE(b.AddEdges(edges).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(TridiagonalTest, DiagonalMatrixEigenvalues) {
  auto evals = SymmetricTridiagonalEigenvalues({3.0, 1.0, 2.0}, {0.0, 0.0});
  ASSERT_TRUE(evals.ok());
  EXPECT_EQ(*evals, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(TridiagonalTest, TwoByTwoClosedForm) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  auto evals = SymmetricTridiagonalEigenvalues({2.0, 2.0}, {1.0});
  ASSERT_TRUE(evals.ok());
  EXPECT_NEAR((*evals)[0], 1.0, 1e-12);
  EXPECT_NEAR((*evals)[1], 3.0, 1e-12);
}

TEST(TridiagonalTest, LaplacianOfPathClosedForm) {
  // Path graph Laplacian eigenvalues: 2 - 2 cos(pi k / n), k = 0..n-1.
  const int n = 8;
  std::vector<double> diag(n, 2.0);
  diag.front() = diag.back() = 1.0;
  std::vector<double> off(n - 1, -1.0);
  auto evals = SymmetricTridiagonalEigenvalues(diag, off);
  ASSERT_TRUE(evals.ok());
  for (int k = 0; k < n; ++k) {
    const double expect = 2.0 - 2.0 * std::cos(M_PI * k / n);
    EXPECT_NEAR((*evals)[k], expect, 1e-10) << "k=" << k;
  }
}

TEST(TridiagonalTest, SingleElement) {
  auto evals = SymmetricTridiagonalEigenvalues({5.0}, {});
  ASSERT_TRUE(evals.ok());
  EXPECT_EQ(*evals, std::vector<double>{5.0});
}

TEST(TridiagonalTest, RejectsBadShapes) {
  EXPECT_FALSE(SymmetricTridiagonalEigenvalues({}, {}).ok());
  EXPECT_FALSE(SymmetricTridiagonalEigenvalues({1.0, 2.0}, {}).ok());
}

TEST(LaplacianOperatorTest, DegreesOnMixedGraph) {
  // 0<->1 mutual (one undirected edge), 1->2 one-way.
  const DiGraph g = Build(3, {{0, 1}, {1, 0}, {1, 2}});
  const LaplacianOperator op(g);
  EXPECT_DOUBLE_EQ(op.degree(0), 1.0);
  EXPECT_DOUBLE_EQ(op.degree(1), 2.0);
  EXPECT_DOUBLE_EQ(op.degree(2), 1.0);
}

TEST(LaplacianOperatorTest, ConstantVectorMapsToZero) {
  util::Rng rng(3);
  auto g = gen::ErdosRenyi(50, 300, &rng);
  ASSERT_TRUE(g.ok());
  const LaplacianOperator op(*g);
  std::vector<double> ones(50, 1.0), out(50, -1.0);
  op.Apply(ones, &out);
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(LaplacianOperatorTest, QuadraticFormIsEdgeDifferenceSum) {
  // xᵀ L x = Σ_{undirected edges} (x_u - x_v)².
  const DiGraph g = Build(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}});
  const LaplacianOperator op(g);
  const std::vector<double> x{1.0, 2.0, 4.0, 7.0};
  std::vector<double> lx(4, 0.0);
  op.Apply(x, &lx);
  double quad = 0.0;
  for (int i = 0; i < 4; ++i) quad += x[i] * lx[i];
  // Undirected edges: (0,1), (1,2), (2,3): 1 + 4 + 9 = 14.
  EXPECT_NEAR(quad, 14.0, 1e-12);
}

// Serial reference: Lanczos with full reorthogonalization by modified
// Gram-Schmidt, one dependent dot-and-subtract per basis vector and a
// single accumulator per dot (the algorithm before the blocked CGS2
// rewrite). Returns the top-k values, descending, and the step count.
std::pair<std::vector<double>, uint32_t> ReferenceLanczos(
    const DiGraph& g, const LanczosOptions& options) {
  const NodeId n = g.num_nodes();
  const LaplacianOperator op(g);
  uint32_t m = options.subspace != 0 ? options.subspace : options.k + 40;
  m = std::max<uint32_t>(std::min<uint32_t>(m, n),
                         std::min<uint32_t>(options.k, n));
  util::Rng rng(options.seed);
  std::vector<std::vector<double>> basis;
  std::vector<double> alpha, beta, v(n), w(n);
  double norm = 0.0;
  for (double& x : v) x = rng.Normal();
  for (double x : v) norm += x * x;
  for (double& x : v) x /= std::sqrt(norm);
  basis.push_back(v);
  for (uint32_t j = 0; j < m; ++j) {
    op.Apply(basis[j], &w);
    double a = 0.0;
    for (NodeId i = 0; i < n; ++i) a += w[i] * basis[j][i];
    alpha.push_back(a);
    for (NodeId i = 0; i < n; ++i) w[i] -= a * basis[j][i];
    if (j > 0) {
      for (NodeId i = 0; i < n; ++i) w[i] -= beta[j - 1] * basis[j - 1][i];
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::vector<double>& q : basis) {
        double dot = 0.0;
        for (NodeId i = 0; i < n; ++i) dot += w[i] * q[i];
        for (NodeId i = 0; i < n; ++i) w[i] -= dot * q[i];
      }
    }
    double b = 0.0;
    for (double x : w) b += x * x;
    b = std::sqrt(b);
    if (j + 1 == m || b < 1e-12) break;
    beta.push_back(b);
    for (double& x : w) x /= b;
    basis.push_back(w);
  }
  auto evals = SymmetricTridiagonalEigenvalues(alpha, beta);
  EXPECT_TRUE(evals.ok());
  std::vector<double> top(evals->rbegin(), evals->rend());
  for (double& ev : top) {
    if (ev < 0.0 && ev > -1e-9) ev = 0.0;
  }
  top.resize(std::min<size_t>(options.k, top.size()));
  return {top, static_cast<uint32_t>(alpha.size())};
}

// The blocked CGS2 reorthogonalization sums in a different order than the
// reference, so values are not bit-equal. The leading Ritz values have
// converged and must agree to round-off; the interior ones are
// approximations of the same Krylov space and agree more loosely.
TEST(LanczosTest, AgreesWithSerialReferenceOnVerifiedNetwork) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok());
  LanczosOptions opts;
  opts.k = 100;
  auto r = TopLaplacianEigenvalues(net->graph, opts);
  ASSERT_TRUE(r.ok());
  const auto [ref, ref_iterations] = ReferenceLanczos(net->graph, opts);
  EXPECT_EQ(r->iterations, ref_iterations);
  ASSERT_EQ(r->eigenvalues.size(), ref.size());
  ASSERT_EQ(ref.size(), opts.k);
  const size_t top = (opts.k + 2) / 3;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double tol = (i < top ? 1e-10 : 1e-3) * ref[i];
    EXPECT_NEAR(r->eigenvalues[i], ref[i], tol) << "i=" << i;
  }
}

// A star K_{1,19} has three distinct Laplacian eigenvalues {0, 1, 20}, so
// the Krylov space is exhausted after three steps, well before m = 20,
// and both implementations take the early stop.
TEST(LanczosTest, KrylovExhaustionStopsEarlyLikeReference) {
  const NodeId n = 20;
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) ASSERT_TRUE(b.AddEdge(0, v).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  LanczosOptions opts;
  opts.k = 10;
  auto r = TopLaplacianEigenvalues(*g, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->iterations, 3u);
  const auto [ref, ref_iterations] = ReferenceLanczos(*g, opts);
  EXPECT_EQ(ref_iterations, 3u);
  ASSERT_EQ(r->eigenvalues.size(), 3u);
  ASSERT_EQ(ref.size(), 3u);
  const std::vector<double> exact{20.0, 1.0, 0.0};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(r->eigenvalues[i], exact[i], 1e-9) << "i=" << i;
    EXPECT_NEAR(r->eigenvalues[i], ref[i], 1e-9) << "i=" << i;
  }
}

TEST(LanczosTest, CompleteGraphSpectrum) {
  // K_n (mutual): Laplacian eigenvalues are n (n-1 times) and 0.
  const NodeId n = 12;
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) {
        ASSERT_TRUE(b.AddEdge(u, v).ok());
      }
    }
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  LanczosOptions opts;
  opts.k = 12;
  auto r = TopLaplacianEigenvalues(*g, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->eigenvalues.size(), 2u);
  for (size_t i = 0; i + 1 < r->eigenvalues.size(); ++i) {
    // All but the smallest returned value should be ~n.
    if (i < r->eigenvalues.size() - 1 &&
        r->eigenvalues[i] > 1.0) {
      EXPECT_NEAR(r->eigenvalues[i], 12.0, 1e-6);
    }
  }
  EXPECT_NEAR(r->eigenvalues.front(), 12.0, 1e-6);
}

TEST(LanczosTest, StarGraphLargestEigenvalue) {
  // Star K_{1,n-1}: Laplacian eigenvalues {0, 1 (n-2 times), n}.
  const NodeId n = 20;
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) ASSERT_TRUE(b.AddEdge(0, v).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  LanczosOptions opts;
  opts.k = 3;
  auto r = TopLaplacianEigenvalues(*g, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->eigenvalues[0], 20.0, 1e-8);
  EXPECT_NEAR(r->eigenvalues[1], 1.0, 1e-8);
}

TEST(LanczosTest, AgreesWithPowerIteration) {
  util::Rng rng(7);
  auto g = gen::ErdosRenyi(300, 2500, &rng);
  ASSERT_TRUE(g.ok());
  LanczosOptions opts;
  opts.k = 5;
  auto lanczos = TopLaplacianEigenvalues(*g, opts);
  ASSERT_TRUE(lanczos.ok());
  const LaplacianOperator op(*g);
  auto largest = PowerIterationLargest(op, 5000, 1e-12);
  ASSERT_TRUE(largest.ok());
  EXPECT_NEAR(lanczos->eigenvalues[0], *largest,
              1e-5 * (*largest));
}

TEST(LanczosTest, EigenvaluesDescendingAndNonNegative) {
  util::Rng rng(11);
  auto g = gen::PreferentialAttachment(400, 4, &rng);
  ASSERT_TRUE(g.ok());
  LanczosOptions opts;
  opts.k = 30;
  auto r = TopLaplacianEigenvalues(*g, opts);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->eigenvalues.size(); ++i) {
    EXPECT_LE(r->eigenvalues[i], r->eigenvalues[i - 1] + 1e-9);
  }
  for (double ev : r->eigenvalues) EXPECT_GE(ev, 0.0);
}

TEST(LanczosTest, LargestEigenvalueBoundedByTwiceMaxDegree) {
  util::Rng rng(13);
  auto g = gen::ErdosRenyi(200, 1000, &rng);
  ASSERT_TRUE(g.ok());
  LanczosOptions opts;
  opts.k = 1;
  auto r = TopLaplacianEigenvalues(*g, opts);
  ASSERT_TRUE(r.ok());
  const LaplacianOperator op(*g);
  double max_deg = 0.0;
  for (NodeId u = 0; u < g->num_nodes(); ++u) {
    max_deg = std::max(max_deg, op.degree(u));
  }
  EXPECT_LE(r->eigenvalues[0], 2.0 * max_deg + 1e-9);
  EXPECT_GE(r->eigenvalues[0], max_deg);  // λ_max >= d_max + 1 in fact
}

TEST(LanczosTest, RejectsBadInputs) {
  EXPECT_FALSE(TopLaplacianEigenvalues(DiGraph()).ok());
  const DiGraph g = Build(3, {{0, 1}});
  LanczosOptions opts;
  opts.k = 0;
  EXPECT_FALSE(TopLaplacianEigenvalues(g, opts).ok());
}

TEST(PowerIterationTest, EdgelessGraphIsZero) {
  GraphBuilder b(5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const LaplacianOperator op(*g);
  auto r = PowerIterationLargest(op);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.0, 1e-9);
}

}  // namespace
}  // namespace analysis
}  // namespace elitenet
