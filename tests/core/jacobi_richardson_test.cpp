// Lemma 3.5 (truncated Jacobi series on 5-DD matrices) and Theorem 3.8
// (preconditioned Richardson), verified densely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/richardson.hpp"
#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "support/rng.hpp"

namespace parlap {
namespace {

/// Builds a dense 5-DD test matrix M = X + Y from a graph: Y = L_G[F]
/// with X chosen so row sums dominate 5x.
struct FiveDdMatrix {
  DenseMatrix m;  // X + Y
  DenseMatrix x;  // diagonal
  DenseMatrix y;  // Laplacian part
};

FiveDdMatrix make_five_dd_matrix(int n, std::uint64_t seed) {
  Multigraph g = make_erdos_renyi(n, 2 * n, seed, /*ensure_connected=*/true);
  apply_weights(g, WeightModel::uniform(0.5, 2.0), seed + 1);
  FiveDdMatrix out;
  out.y = laplacian_dense(g);
  out.x = DenseMatrix(n, n);
  for (int i = 0; i < n; ++i) {
    // Off-diagonal row sum of M is the weighted degree; require
    // M_ii = X_ii + deg >= 5 deg, i.e. X_ii >= 4 deg.
    out.x(i, i) = 4.0 * out.y(i, i) + 0.1;
  }
  out.m = out.x.add(out.y);
  return out;
}

/// Z = sum_{i=0}^{l} X^-1 (-Y X^-1)^i, densely.
DenseMatrix jacobi_series(const FiveDdMatrix& fd, int l) {
  const int n = fd.m.rows();
  DenseMatrix x_inv(n, n);
  for (int i = 0; i < n; ++i) x_inv(i, i) = 1.0 / fd.x(i, i);
  DenseMatrix term = x_inv;  // i = 0
  DenseMatrix z = term;
  for (int i = 1; i <= l; ++i) {
    term = term.multiply(fd.y).multiply(x_inv);
    // Alternating sign: (-YX^-1)^i.
    z = z.add(term, i % 2 == 0 ? 1.0 : -1.0);
  }
  return z;
}

class JacobiLemmaTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobiLemmaTest, SandwichBoundHolds) {
  // Lemma 3.5: for odd l >= log2(3/eps), M <= Z^-1 <= M + eps Y.
  const int l = GetParam();
  const double eps = 3.0 / std::pow(2.0, l);
  const FiveDdMatrix fd = make_five_dd_matrix(24, 7);
  const DenseMatrix z = jacobi_series(fd, l);
  const DenseMatrix z_inv = pseudo_inverse(z);  // Z is PD here

  // M <= Z^-1  <=>  Z^-1 - M is PSD.
  {
    DenseMatrix diff = z_inv.add(fd.m, -1.0);
    diff.symmetrize();
    const EigenDecomposition eig = symmetric_eigen(std::move(diff));
    EXPECT_GE(eig.values.front(), -1e-7);
  }
  // Z^-1 <= M + eps Y.
  {
    DenseMatrix upper = fd.m.add(fd.y, eps);
    DenseMatrix diff = upper.add(z_inv, -1.0);
    diff.symmetrize();
    const EigenDecomposition eig = symmetric_eigen(std::move(diff));
    EXPECT_GE(eig.values.front(), -1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(SeriesLengths, JacobiLemmaTest,
                         ::testing::Values(1, 3, 5, 7, 9));

TEST(JacobiLemma, LongerSeriesTighter) {
  const FiveDdMatrix fd = make_five_dd_matrix(20, 9);
  double prev_gap = 1e300;
  for (const int l : {1, 3, 5, 7}) {
    const DenseMatrix z = jacobi_series(fd, l);
    const DenseMatrix z_inv = pseudo_inverse(z);
    const double gap = z_inv.add(fd.m, -1.0).frobenius_norm();
    EXPECT_LT(gap, prev_gap);
    prev_gap = gap;
  }
}

// ---------------------------------------------------------------------
// Richardson runs on panels; a single right-hand side is a 1-column panel.

Panel column_panel(std::span<const double> v) {
  Panel p(v.size(), 1);
  std::copy(v.begin(), v.end(), p.col(0).begin());
  return p;
}

/// The panel form of a per-vector map, applied column by column.
PanelMap by_columns(LinearMap m) {
  return [m = std::move(m)](const Panel& r, Panel& y) {
    y.resize(r.rows(), r.cols());
    for (std::size_t c = 0; c < r.cols(); ++c) m(r.col(c), y.col(c));
  };
}

/// Solves the 1-column system A x = b and returns its stats.
IterationStats solve_column(const LaplacianOperator& a,
                            const LinearMap& precond,
                            std::span<const double> b, Panel& x, double eps,
                            const RichardsonOptions& opts = {}) {
  const std::vector<IterationStats> stats = preconditioned_richardson(
      a, by_columns(precond), column_panel(b), x, eps, opts);
  EXPECT_EQ(stats.size(), 1u);
  EXPECT_EQ(x.cols(), 1u);
  return stats.front();
}

TEST(Richardson, ExactPreconditionerOneShot) {
  const Multigraph g = make_grid2d(6, 6);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const LinearMap precond = [&](std::span<const double> r,
                                std::span<double> y) {
    const Vector out = pinv.apply(r);
    std::copy(out.begin(), out.end(), y.begin());
  };
  Vector b(36);
  Rng rng(1, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  project_out_ones(b);
  Panel x;
  RichardsonOptions opts;
  opts.delta = 1e-6;
  opts.auto_step = false;  // test the paper's alpha = 2/(e^-d + e^d)
  const IterationStats st = solve_column(op, precond, b, x, 1e-10, opts);
  EXPECT_TRUE(st.reached_target);
  EXPECT_LE(st.iterations, 2);
}

TEST(Richardson, AutoStepSurvivesMiscalibratedPreconditioner) {
  // B = e^2 L^+ is far outside the delta = 1 window: the paper's fixed
  // alpha diverges (alpha * lambda_max ~ 0.648 e^2 > 2), while the
  // power-iteration step size converges.
  const Multigraph g = make_cycle(40);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const double c = std::exp(2.0);
  const LinearMap precond = [&](std::span<const double> r,
                                std::span<double> y) {
    const Vector out = pinv.apply(r);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = c * out[i];
  };
  Vector b(40);
  Rng rng(5, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  project_out_ones(b);

  RichardsonOptions fixed;
  fixed.auto_step = false;
  fixed.delta = 1.0;  // wrong: actual delta is 2
  fixed.max_iterations = 60;
  Panel x1;
  const IterationStats diverged = solve_column(op, precond, b, x1, 1e-8, fixed);
  EXPECT_FALSE(diverged.reached_target);

  RichardsonOptions autod;
  autod.max_iterations = 60;
  Panel x2;
  const IterationStats converged =
      solve_column(op, precond, b, x2, 1e-8, autod);
  EXPECT_TRUE(converged.reached_target);
}

TEST(Richardson, ScaledPreconditionerConvergesAtTheoryRate) {
  // B = c * L^+ is a delta-approximation with delta = |ln c|; Richardson
  // must still converge within the e^{2 delta} log(1/eps) budget.
  const Multigraph g = make_cycle(40);
  const LaplacianOperator op(g);
  const DenseMatrix pinv = pseudo_inverse(laplacian_dense(g));
  const double c = std::exp(0.8);
  const LinearMap precond = [&](std::span<const double> r,
                                std::span<double> y) {
    const Vector out = pinv.apply(r);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = c * out[i];
  };
  Vector b(40);
  Rng rng(2, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  project_out_ones(b);
  Panel x;
  RichardsonOptions opts;
  opts.delta = 0.8;
  opts.auto_step = false;  // measure the paper's fixed-alpha rate
  const double eps = 1e-10;
  const IterationStats st = solve_column(op, precond, b, x, eps, opts);
  EXPECT_TRUE(st.reached_target);
  EXPECT_LE(st.iterations, static_cast<int>(std::ceil(
                               std::exp(1.6) * std::log(1.0 / eps))) +
                               1);
}

TEST(Richardson, ZeroRhsReturnsZero) {
  const Multigraph g = make_path(10);
  const LaplacianOperator op(g);
  const LinearMap identity_map = [](std::span<const double> r,
                                    std::span<double> y) {
    std::copy(r.begin(), r.end(), y.begin());
  };
  const Vector b(10, 0.0);
  Panel x = column_panel(Vector(10, 5.0));
  const IterationStats st = solve_column(op, identity_map, b, x, 0.5);
  EXPECT_TRUE(st.reached_target);
  for (const double v : x.col(0)) EXPECT_EQ(v, 0.0);
}

TEST(Richardson, IterationCapRespected) {
  const Multigraph g = make_path(200);  // terrible conditioning
  const LaplacianOperator op(g);
  const LinearMap identity_map = [](std::span<const double> r,
                                    std::span<double> y) {
    std::copy(r.begin(), r.end(), y.begin());
  };
  Vector b(200);
  Rng rng(3, RngTag::kTest, 0);
  for (auto& v : b) v = rng.next_in(-1.0, 1.0);
  project_out_ones(b);
  Panel x;
  RichardsonOptions opts;
  opts.max_iterations = 7;
  const IterationStats st = solve_column(op, identity_map, b, x, 1e-12, opts);
  EXPECT_FALSE(st.reached_target);
  EXPECT_EQ(st.iterations, 7);
}

TEST(Richardson, InvalidEpsThrows) {
  const Multigraph g = make_path(4);
  const LaplacianOperator op(g);
  const LinearMap id_map = [](std::span<const double> r, std::span<double> y) {
    std::copy(r.begin(), r.end(), y.begin());
  };
  const Panel b(4, 1);
  Panel x;
  EXPECT_THROW(
      (void)preconditioned_richardson(op, by_columns(id_map), b, x, 1.5),
      std::runtime_error);
}

}  // namespace
}  // namespace parlap
