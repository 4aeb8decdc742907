// Unit and property tests for the markov/ module, cross-checked against
// closed-form results (two-state chains, birth-death chains, Erlang).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/report.hpp"
#include "markov/absorption.hpp"
#include "markov/ctmc.hpp"
#include "markov/sparse.hpp"
#include "markov/steady.hpp"
#include "markov/transient.hpp"

namespace {

using namespace multival::markov;

// --- SparseMatrix -----------------------------------------------------------

TEST(Sparse, FromTripletsSumsDuplicates) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, 2, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 0, 5.0}});
  EXPECT_EQ(m.num_nonzeros(), 2u);
  ASSERT_EQ(m.row(0).size(), 1u);
  EXPECT_DOUBLE_EQ(m.row(0)[0].value, 3.0);
  EXPECT_EQ(m.row(0)[0].col, 1u);
}

TEST(Sparse, OutOfRangeTripletThrows) {
  EXPECT_THROW((void)SparseMatrix::from_triplets(1, 1, {{0, 2, 1.0}}),
               std::out_of_range);
}

TEST(Sparse, MultiplyLeftAndRight) {
  // [[0,2],[3,0]]
  const SparseMatrix m =
      SparseMatrix::from_triplets(2, 2, {{0, 1, 2.0}, {1, 0, 3.0}});
  const std::vector<double> x{1.0, 10.0};
  const auto left = m.multiply_left(x);  // x*M = [30, 2]
  EXPECT_DOUBLE_EQ(left[0], 30.0);
  EXPECT_DOUBLE_EQ(left[1], 2.0);
  const auto right = m.multiply_right(x);  // M*x = [20, 3]
  EXPECT_DOUBLE_EQ(right[0], 20.0);
  EXPECT_DOUBLE_EQ(right[1], 3.0);
}

TEST(Sparse, MultiplySizeChecked) {
  const SparseMatrix m = SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  const std::vector<double> bad{1.0};
  EXPECT_THROW((void)m.multiply_left(bad), std::invalid_argument);
  EXPECT_THROW((void)m.multiply_right(bad), std::invalid_argument);
}

TEST(Sparse, Transpose) {
  const SparseMatrix m =
      SparseMatrix::from_triplets(2, 3, {{0, 2, 4.0}, {1, 0, 5.0}});
  const SparseMatrix t = m.transpose();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_cols(), 2u);
  ASSERT_EQ(t.row(2).size(), 1u);
  EXPECT_DOUBLE_EQ(t.row(2)[0].value, 4.0);
  EXPECT_EQ(t.row(2)[0].col, 0u);
}

// --- Ctmc basics -------------------------------------------------------------

TEST(CtmcTest, RatesValidated) {
  Ctmc c;
  c.add_states(2);
  EXPECT_THROW(c.add_transition(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_transition(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(c.add_transition(0, 5, 1.0), std::out_of_range);
}

TEST(CtmcTest, ExitRates) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 2.0);
  c.add_transition(0, 1, 3.0);
  const auto e = c.exit_rates();
  EXPECT_DOUBLE_EQ(e[0], 5.0);
  EXPECT_DOUBLE_EQ(e[1], 0.0);
  EXPECT_EQ(absorbing_states(c), (std::vector<bool>{false, true}));
}

TEST(CtmcTest, InitialDistribution) {
  Ctmc c;
  c.add_states(3);
  c.set_initial_state(2);
  const auto pi0 = c.initial_distribution();
  EXPECT_DOUBLE_EQ(pi0[2], 1.0);
  c.set_initial_distribution({0.5, 0.5, 0.0});
  EXPECT_DOUBLE_EQ(c.initial_distribution()[0], 0.5);
  EXPECT_THROW(c.set_initial_distribution({1.0}), std::invalid_argument);
  EXPECT_THROW(c.set_initial_distribution({0.4, 0.4, 0.4}),
               std::invalid_argument);
}

TEST(CtmcTest, UniformizedDtmcRowsSumToOne) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 4.0);
  c.add_transition(1, 0, 1.0);
  double lambda = 0.0;
  const SparseMatrix p = c.uniformized_dtmc(lambda);
  EXPECT_GE(lambda, 4.0);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (const Entry& e : p.row(r)) {
      sum += e.value;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

// --- steady state ---------------------------------------------------------------

TEST(Steady, TwoStateChain) {
  // 0 -a-> 1, 1 -b-> 0: pi = (b, a)/(a+b).
  const double a = 3.0;
  const double b = 1.0;
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, a);
  c.add_transition(1, 0, b);
  const auto pi = steady_state(c);
  EXPECT_NEAR(pi[0], b / (a + b), 1e-9);
  EXPECT_NEAR(pi[1], a / (a + b), 1e-9);
}

TEST(Steady, BirthDeathMatchesGeometric) {
  // M/M/1/4 with lambda=1, mu=2: pi_i = rho^i * (1-rho)/(1-rho^5).
  const double lambda = 1.0;
  const double mu = 2.0;
  const int k = 4;
  Ctmc c;
  c.add_states(k + 1);
  for (int i = 0; i < k; ++i) {
    c.add_transition(i, i + 1, lambda);
    c.add_transition(i + 1, i, mu);
  }
  const auto pi = steady_state(c);
  const double rho = lambda / mu;
  const double norm = (1 - rho) / (1 - std::pow(rho, k + 1));
  for (int i = 0; i <= k; ++i) {
    EXPECT_NEAR(pi[i], std::pow(rho, i) * norm, 1e-9) << "state " << i;
  }
}

TEST(Steady, SumsToOne) {
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 2, 2.0);
  c.add_transition(2, 0, 3.0);
  const auto pi = steady_state(c);
  double sum = 0.0;
  for (const double p : pi) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Steady, SelfLoopsAreNeutral) {
  Ctmc a;
  a.add_states(2);
  a.add_transition(0, 1, 2.0);
  a.add_transition(1, 0, 1.0);
  Ctmc b = a;
  b.add_transition(0, 0, 5.0);  // self-loop must not change steady state
  const auto pa = steady_state(a);
  const auto pb = steady_state(b);
  EXPECT_NEAR(pa[0], pb[0], 1e-9);
}

TEST(Steady, ReducibleChainSplitsMassAcrossBsccs) {
  // 0 -1-> 1 (absorbing), 0 -3-> 2 (absorbing): mass 1/4 and 3/4.
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(0, 2, 3.0);
  const auto pi = steady_state(c);
  EXPECT_NEAR(pi[0], 0.0, 1e-12);
  EXPECT_NEAR(pi[1], 0.25, 1e-9);
  EXPECT_NEAR(pi[2], 0.75, 1e-9);
}

TEST(Steady, BsccDecomposition) {
  Ctmc c;
  c.add_states(4);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 2, 1.0);
  c.add_transition(2, 1, 1.0);  // {1,2} bottom
  c.add_transition(0, 3, 1.0);  // {3} bottom (absorbing)
  const auto d = bscc_decomposition(c);
  EXPECT_EQ(d.component_of[1], d.component_of[2]);
  EXPECT_FALSE(d.is_bottom[d.component_of[0]]);
  EXPECT_TRUE(d.is_bottom[d.component_of[1]]);
  EXPECT_TRUE(d.is_bottom[d.component_of[3]]);
}

TEST(Steady, ReachabilityProbability) {
  // Fair race: 0 goes to 1 or 2 with equal rate; target {1}.
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 2.0);
  c.add_transition(0, 2, 2.0);
  const auto h = reachability_probability(c, {false, true, false});
  EXPECT_NEAR(h[0], 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
  EXPECT_DOUBLE_EQ(h[2], 0.0);
}

TEST(Steady, EmptyChain) {
  Ctmc c;
  EXPECT_TRUE(steady_state(c).empty());
}

// --- steady state by elimination --------------------------------------------

/// Birth–death chain 0..n-1 with rates lambda up and mu down.
Ctmc birth_death_chain(std::size_t n, double lambda, double mu) {
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(static_cast<MState>(i), static_cast<MState>(i + 1),
                     lambda);
    c.add_transition(static_cast<MState>(i + 1), static_cast<MState>(i), mu);
  }
  return c;
}

/// pi_i proportional to rho^i, in long double, rho = lambda / mu exactly.
std::vector<long double> birth_death_closed_form(std::size_t n, double lambda,
                                                 double mu) {
  const long double rho =
      static_cast<long double>(lambda) / static_cast<long double>(mu);
  std::vector<long double> pi(n);
  long double term = 1.0L;
  long double sum = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    pi[i] = term;
    sum += term;
    term *= rho;
  }
  for (long double& p : pi) {
    p /= sum;
  }
  return pi;
}

/// Largest componentwise relative error of @p pi against @p want, over the
/// components @p want puts above @p floor (those below must be under it).
double max_relative_error(const std::vector<double>& pi,
                          const std::vector<long double>& want,
                          long double floor = 0.0L) {
  EXPECT_EQ(pi.size(), want.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < pi.size() && i < want.size(); ++i) {
    if (want[i] > floor) {
      worst = std::max(
          worst, static_cast<double>(
                     std::fabs(static_cast<long double>(pi[i]) - want[i]) /
                     want[i]));
    } else {
      EXPECT_LE(pi[i], 2.0 * static_cast<double>(floor)) << "state " << i;
    }
  }
  return worst;
}

void expect_birth_death_closed_form(double rho) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{4000}}) {
    const std::vector<double> pi = steady_state(birth_death_chain(n, rho, 1.0));
    EXPECT_LE(max_relative_error(pi, birth_death_closed_form(n, rho, 1.0)),
              1e-12)
        << "rho " << rho << ", n " << n;
  }
}

TEST(Steady, BirthDeathClosedFormRho0_9) {
  expect_birth_death_closed_form(0.9);
}

TEST(Steady, BirthDeathClosedFormRho0_999) {
  expect_birth_death_closed_form(0.999);
}

TEST(Steady, BirthDeathClosedFormRho1) { expect_birth_death_closed_form(1.0); }

TEST(Steady, BirthDeathClosedFormBeyondTheDoubleRange) {
  // pi_i = 100^-i (1 - 1/100): back-substitution from the far end meets
  // 100^399, past the double range, and the smallest values underflow.
  const std::size_t n = 400;
  const std::vector<double> pi = steady_state(birth_death_chain(n, 0.01, 1.0));
  EXPECT_LE(max_relative_error(pi, birth_death_closed_form(n, 0.01, 1.0),
                               1e-290L),
            1e-12);
}

/// A seeded irreducible chain: a random Hamiltonian cycle plus extra edges
/// (some parallel, some self-loops), rates uniform in [0.5, 2] or, when
/// @p wide, log-uniform over 1e-6..1e6.
Ctmc random_irreducible(std::mt19937_64& rng, std::size_t n,
                        std::size_t extra, bool wide) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto rate = [&] {
    return wide ? std::pow(10.0, -6.0 + 12.0 * unit(rng))
                : 0.5 + 1.5 * unit(rng);
  };
  std::vector<MState> cycle(n);
  for (std::size_t i = 0; i < n; ++i) {
    cycle[i] = static_cast<MState>(i);
  }
  std::shuffle(cycle.begin(), cycle.end(), rng);
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.add_transition(cycle[i], cycle[(i + 1) % n], rate());
  }
  std::uniform_int_distribution<std::size_t> state(0, n - 1);
  for (std::size_t e = 0; e < extra; ++e) {
    c.add_transition(static_cast<MState>(state(rng)),
                     static_cast<MState>(state(rng)), rate());
  }
  return c;
}

/// Dense GTH in long double: the reference the sparse solver is held to.
std::vector<long double> dense_gth(const Ctmc& c) {
  const std::size_t n = c.num_states();
  std::vector<long double> q(n * n, 0.0L);
  for (const RateTransition& t : c.transitions()) {
    if (t.src != t.dst) {
      q[t.src * n + t.dst] += t.rate;
    }
  }
  std::vector<long double> s(n, 0.0L);
  for (std::size_t k = n; k-- > 1;) {
    for (std::size_t j = 0; j < k; ++j) {
      s[k] += q[k * n + j];
    }
    for (std::size_t i = 0; i < k; ++i) {
      const long double f = q[i * n + k] / s[k];
      for (std::size_t j = 0; j < k; ++j) {
        if (j != i) {
          q[i * n + j] += f * q[k * n + j];
        }
      }
    }
  }
  std::vector<long double> pi(n, 0.0L);
  pi[0] = 1.0L;
  long double sum = 1.0L;
  for (std::size_t k = 1; k < n; ++k) {
    for (std::size_t i = 0; i < k; ++i) {
      pi[k] += pi[i] * q[i * n + k];
    }
    pi[k] /= s[k];
    sum += pi[k];
  }
  for (long double& p : pi) {
    p /= sum;
  }
  return pi;
}

/// The one steady_state record a solve of an irreducible chain leaves.
multival::core::SolveStat steady_record(const Ctmc& c,
                                        std::vector<double>& pi) {
  multival::core::clear_solve_log();
  pi = steady_state(c);
  const std::vector<multival::core::SolveStat> log =
      multival::core::solve_log();
  EXPECT_EQ(log.size(), 1u);
  return log.empty() ? multival::core::SolveStat{} : log.back();
}

TEST(Steady, MatchesDenseGth) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<std::size_t> size(2, 60);
  for (int trial = 0; trial < 360; ++trial) {
    const std::size_t n = size(rng);
    const Ctmc c = random_irreducible(rng, n, n * (1 + trial % 3),
                                      /*wide=*/trial % 3 == 0);
    std::vector<double> pi;
    const multival::core::SolveStat rec = steady_record(c, pi);
    EXPECT_EQ(rec.solver, "steady_state[gth]") << "trial " << trial;
    EXPECT_LE(max_relative_error(pi, dense_gth(c)), 1e-12)
        << "trial " << trial << ", " << n << " states";
  }
}

TEST(Steady, HighFillBsccFallsBack) {
  // Out-degree 3 at random: elimination fill explodes, so the BSCC is
  // solved by Gauss–Seidel and recorded with the residual it reached.
  std::mt19937_64 rng(600);
  const Ctmc dense = random_irreducible(rng, 600, 2 * 600, /*wide=*/false);
  std::vector<double> pi;
  const multival::core::SolveStat rec = steady_record(dense, pi);
  EXPECT_EQ(rec.solver, "steady_state[gauss-seidel]");
  EXPECT_GT(rec.iterations, 0u);
  EXPECT_GT(rec.residual, 0.0);
  EXPECT_LT(rec.residual, 1e-9);
  const std::vector<long double> want = dense_gth(dense);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(pi[i], static_cast<double>(want[i]), 1e-10) << "state " << i;
  }

  // A hub: each leaf elimination rescans the hub's long row, so the scans
  // pass the budget although no fill arises.  pi_leaf = pi_hub * a / b.
  const std::size_t leaves = 2000;
  Ctmc star;
  star.add_states(leaves + 1);
  std::vector<long double> want_star(leaves + 1, 1.0L);
  long double total = 1.0L;
  for (std::size_t i = 1; i <= leaves; ++i) {
    const double a = 0.5 + static_cast<double>(i % 7);
    const double b = 1.0 + static_cast<double>(i % 5);
    star.add_transition(0, static_cast<MState>(i), a);
    star.add_transition(static_cast<MState>(i), 0, b);
    want_star[i] = static_cast<long double>(a) / b;
    total += want_star[i];
  }
  const multival::core::SolveStat hub = steady_record(star, pi);
  EXPECT_EQ(hub.solver, "steady_state[gauss-seidel]");
  for (std::size_t i = 0; i <= leaves; ++i) {
    EXPECT_NEAR(pi[i], static_cast<double>(want_star[i] / total), 1e-10)
        << "state " << i;
  }

  // A low-fill chain is eliminated: no sweeps, a residual at rounding level.
  const multival::core::SolveStat low =
      steady_record(birth_death_chain(1000, 0.9, 1.0), pi);
  EXPECT_EQ(low.solver, "steady_state[gth]");
  EXPECT_EQ(low.iterations, 0u);
  EXPECT_LT(low.residual, 1e-13);
}

TEST(Steady, EliminationIsDeterministic) {
  // A 15x15 grid with random rates: enough fill that the elimination
  // order matters, little enough to stay under the budget.
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<double> rate(0.5, 2.0);
  const std::size_t w = 15;
  Ctmc c;
  c.add_states(w * w);
  for (std::size_t r = 0; r < w; ++r) {
    for (std::size_t col = 0; col < w; ++col) {
      const auto s = static_cast<MState>(r * w + col);
      if (col + 1 < w) {
        c.add_transition(s, s + 1, rate(rng));
        c.add_transition(s + 1, s, rate(rng));
      }
      if (r + 1 < w) {
        c.add_transition(s, static_cast<MState>(s + w), rate(rng));
        c.add_transition(static_cast<MState>(s + w), s, rate(rng));
      }
    }
  }
  std::vector<double> first;
  std::vector<double> second;
  EXPECT_EQ(steady_record(c, first).solver, "steady_state[gth]");
  EXPECT_EQ(steady_record(c, second).solver, "steady_state[gth]");
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(),
                        first.size() * sizeof(double)),
            0);
  EXPECT_LE(max_relative_error(first, dense_gth(c)), 1e-12);
}

// --- rewards & throughput ----------------------------------------------------------

TEST(Rewards, ExpectedReward) {
  const std::vector<double> pi{0.25, 0.75};
  const std::vector<double> r{4.0, 8.0};
  EXPECT_DOUBLE_EQ(expected_reward(pi, r), 7.0);
}

TEST(Rewards, ThroughputByLabel) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 3.0, "serve");
  c.add_transition(1, 0, 1.0, "arrive");
  const auto pi = steady_state(c);
  // Flow balance: throughput(serve) == throughput(arrive).
  EXPECT_NEAR(throughput(c, pi, "serve"), throughput(c, pi, "arrive"), 1e-9);
  EXPECT_NEAR(throughput(c, pi, "serve"), pi[0] * 3.0, 1e-12);
  EXPECT_NEAR(throughput(c, pi, "*"), pi[0] * 3.0 + pi[1] * 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(throughput(c, pi, "nothing"), 0.0);
}

// --- transient ------------------------------------------------------------------------

TEST(Transient, PoissonWeightsNormalised) {
  for (const double lt : {0.0, 0.5, 3.0, 50.0, 400.0}) {
    const PoissonWeights w = poisson_weights(lt);
    double sum = 0.0;
    double mean = 0.0;
    for (std::size_t k = 0; k < w.weights.size(); ++k) {
      sum += w.weights[k];
      mean += static_cast<double>(w.left + k) * w.weights[k];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "lambda*t = " << lt;
    EXPECT_NEAR(mean, lt, 1e-6 * (1.0 + lt)) << "lambda*t = " << lt;
  }
}

TEST(Transient, TwoStateClosedForm) {
  // P(X(t)=1 | X(0)=0) = a/(a+b) * (1 - exp(-(a+b)t)).
  const double a = 2.0;
  const double b = 0.5;
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, a);
  c.add_transition(1, 0, b);
  for (const double t : {0.1, 0.5, 1.0, 3.0}) {
    const auto pi = transient_distribution(c, t);
    const double expect = a / (a + b) * (1.0 - std::exp(-(a + b) * t));
    EXPECT_NEAR(pi[1], expect, 1e-9) << "t = " << t;
  }
}

TEST(Transient, TimeZeroIsInitial) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  const auto pi = transient_distribution(c, 0.0);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

TEST(Transient, ConvergesToSteadyState) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 0, 2.0);
  const auto pi_t = transient_distribution(c, 200.0);
  const auto pi = steady_state(c);
  EXPECT_NEAR(pi_t[0], pi[0], 1e-8);
}

TEST(Transient, SetProbability) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  const double p = transient_probability(c, {false, true}, 1.0);
  EXPECT_NEAR(p, 1.0 - std::exp(-1.0), 1e-9);
}

TEST(Transient, NegativeTimeThrows) {
  Ctmc c;
  c.add_state();
  EXPECT_THROW((void)transient_distribution(c, -1.0), std::invalid_argument);
}

// --- absorption ------------------------------------------------------------------------

TEST(Absorption, ErlangChain) {
  // 0 -r-> 1 -r-> 2 (absorbing): expected time = 2/r.
  const double r = 4.0;
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, r);
  c.add_transition(1, 2, r);
  const auto t = expected_time_to_absorption(c);
  EXPECT_NEAR(t[0], 2.0 / r, 1e-9);
  EXPECT_NEAR(t[1], 1.0 / r, 1e-9);
  EXPECT_DOUBLE_EQ(t[2], 0.0);
  EXPECT_NEAR(expected_absorption_time_from_initial(c), 2.0 / r, 1e-9);
}

TEST(Absorption, BranchingChain) {
  // 0 branches: to absorbing 1 (rate 1) or to 2 (rate 1), 2 -2-> 1.
  // E[T] = 1/2 (sojourn at 0) + 1/2 * E[via 2] where E[via2] adds 1/2.
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(0, 2, 1.0);
  c.add_transition(2, 1, 2.0);
  const auto t = expected_time_to_absorption(c);
  EXPECT_NEAR(t[0], 0.5 + 0.5 * 0.5, 1e-9);
}

TEST(Absorption, UnreachableAbsorptionIsInfinite) {
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 0, 1.0);  // {0,1} recurrent, 2 isolated absorbing
  const auto t = expected_time_to_absorption(c);
  EXPECT_TRUE(std::isinf(t[0]));
  EXPECT_TRUE(std::isinf(t[1]));
  EXPECT_DOUBLE_EQ(t[2], 0.0);
}

TEST(Absorption, MeanFirstPassage) {
  // Cycle 0->1->2->0 with rate 1; time from 0 to first hit 2 is 2.
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 2, 1.0);
  c.add_transition(2, 0, 1.0);
  const auto t = mean_first_passage_time(c, {false, false, true});
  EXPECT_NEAR(t[0], 2.0, 1e-9);
  EXPECT_NEAR(t[1], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(t[2], 0.0);
}

TEST(Absorption, ProbabilityByTime) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 2.0);
  EXPECT_NEAR(absorption_probability_by(c, 1.0), 1.0 - std::exp(-2.0), 1e-9);
  EXPECT_NEAR(absorption_probability_by(c, 0.0), 0.0, 1e-12);
}

TEST(Absorption, QuantileExponentialClosedForm) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 2.0);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_NEAR(absorption_time_quantile(c, q), -std::log(1.0 - q) / 2.0,
                1e-6)
        << q;
  }
}

TEST(Absorption, QuantileMonotoneInQ) {
  Ctmc c;
  c.add_states(4);
  for (int i = 0; i < 3; ++i) {
    c.add_transition(i, i + 1, 1.5);
  }
  const double p50 = absorption_time_quantile(c, 0.5);
  const double p95 = absorption_time_quantile(c, 0.95);
  const double p99 = absorption_time_quantile(c, 0.99);
  EXPECT_LT(p50, p95);
  EXPECT_LT(p95, p99);
  // Mean lies between median and p99 for this right-skewed distribution.
  const double mean = expected_absorption_time_from_initial(c);
  EXPECT_GT(mean, p50 * 0.8);
  EXPECT_LT(mean, p99);
}

TEST(Absorption, QuantileValidation) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  EXPECT_THROW((void)absorption_time_quantile(c, 0.0), std::invalid_argument);
  EXPECT_THROW((void)absorption_time_quantile(c, 1.0), std::invalid_argument);
  Ctmc loop;
  loop.add_states(2);
  loop.add_transition(0, 1, 1.0);
  loop.add_transition(1, 0, 1.0);
  EXPECT_THROW((void)absorption_time_quantile(loop, 0.5), SolverFailure);
}

// --- property sweep: birth-death chains ----------------------------------------------

struct BdParam {
  double lambda;
  double mu;
  int capacity;
};

class BirthDeathProperty : public ::testing::TestWithParam<BdParam> {};

TEST_P(BirthDeathProperty, SolverMatchesClosedForm) {
  const auto [lambda, mu, k] = GetParam();
  Ctmc c;
  c.add_states(k + 1);
  for (int i = 0; i < k; ++i) {
    c.add_transition(i, i + 1, lambda, "arrive");
    c.add_transition(i + 1, i, mu, "serve");
  }
  const auto pi = steady_state(c);
  const double rho = lambda / mu;
  double norm = 0.0;
  for (int i = 0; i <= k; ++i) {
    norm += std::pow(rho, i);
  }
  for (int i = 0; i <= k; ++i) {
    EXPECT_NEAR(pi[i], std::pow(rho, i) / norm, 1e-8);
  }
  // Effective throughput identity: accepted arrivals == services.
  EXPECT_NEAR(throughput(c, pi, "arrive"), throughput(c, pi, "serve"), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Loads, BirthDeathProperty,
    ::testing::Values(BdParam{0.5, 1.0, 3}, BdParam{1.0, 1.0, 5},
                      BdParam{2.0, 1.0, 4}, BdParam{0.9, 1.1, 8},
                      BdParam{5.0, 1.0, 2}, BdParam{0.1, 2.0, 6}));

// --- Fox-Glynn truncation and parallel determinism --------------------------

// Erlang-k completion probability by time t computed through uniformisation
// must match the analytic Poisson tail P[Poisson(r*t) >= k] to the requested
// epsilon, including for large lambda*t where the old per-weight cutoff of
// poisson_weights lost unbounded total mass.
double erlang_cdf(std::size_t k, double rt) {
  double cdf = 0.0;  // P[Poisson(rt) < k]
  for (std::size_t i = 0; i < k; ++i) {
    cdf += std::exp(static_cast<double>(i) * std::log(rt) - rt -
                    std::lgamma(static_cast<double>(i) + 1.0));
  }
  return 1.0 - cdf;
}

TEST(Transient, ErlangCdfLargeLambdaT) {
  for (const double rt : {1e2, 1e4}) {
    // k ~ rt so the CDF sits mid-range instead of saturating at 0 or 1.
    const auto k = static_cast<std::size_t>(rt);
    Ctmc c;
    c.add_states(k + 1);
    for (std::size_t i = 0; i < k; ++i) {
      c.add_transition(static_cast<MState>(i), static_cast<MState>(i + 1),
                       1.0);
    }
    std::vector<bool> target(k + 1, false);
    target[k] = true;
    const double got = bounded_reachability(c, target, rt, 1e-10);
    const double want = erlang_cdf(k, rt);
    EXPECT_GT(want, 0.3);
    EXPECT_LT(want, 0.7);
    EXPECT_NEAR(got, want, 1e-9) << "lambda*t = " << rt;
  }
}

TEST(Transient, PoissonWeightsTotalMassBound) {
  for (const double lt : {0.5, 3.0, 50.0, 1e4}) {
    const double eps = 1e-12;
    const PoissonWeights pw = poisson_weights(lt, eps);
    // The kept (normalised) weights must cover the analytic mass of the
    // kept index range up to eps: the dropped tails are bounded.
    double analytic = 0.0;
    for (std::size_t i = 0; i < pw.weights.size(); ++i) {
      const double k = static_cast<double>(pw.left + i);
      analytic += std::exp(k * std::log(lt) - lt - std::lgamma(k + 1.0));
    }
    EXPECT_GT(analytic, 1.0 - eps) << "lambda*t = " << lt;
  }
}

TEST(Transient, PoissonWeightsRejectsBadEpsilon) {
  EXPECT_THROW((void)poisson_weights(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)poisson_weights(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)poisson_weights(1.0, -1e-3), std::invalid_argument);
}

TEST(Sparse, ParallelMultiplyIsBitwiseDeterministic) {
  // Big enough to clear the serial threshold (kParallelNonzeros).
  const std::size_t n = 20000;
  std::vector<Triplet> ts;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ts.push_back({static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(i + 1), 0.25});
    ts.push_back({static_cast<std::uint32_t>(i + 1),
                  static_cast<std::uint32_t>(i), 1.0 / 3.0});
    ts.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i),
                  1.0 / 7.0});
  }
  const SparseMatrix m = SparseMatrix::from_triplets(n, n, std::move(ts));
  ASSERT_GE(m.num_nonzeros(), SparseMatrix::kParallelNonzeros);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 / static_cast<double>(i + 1);
  }
  const unsigned prev = multival::core::set_parallel_threads(1);
  const std::vector<double> left1 = m.multiply_left(x);
  const std::vector<double> right1 = m.multiply_right(x);
  for (const unsigned threads : {2u, 3u, 8u}) {
    multival::core::set_parallel_threads(threads);
    const std::vector<double> left = m.multiply_left(x);
    const std::vector<double> right = m.multiply_right(x);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(left[i], left1[i]) << "threads=" << threads << " col " << i;
      ASSERT_EQ(right[i], right1[i]) << "threads=" << threads << " row " << i;
    }
  }
  multival::core::set_parallel_threads(prev);
}

TEST(Sparse, TransposeRoundTripWithCscLayout) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, 2, {{0, 1, 1.0}, {2, 0, 2.0}, {1, 1, 3.0}});
  const SparseMatrix t = m.transpose();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 3u);
  const SparseMatrix back = t.transpose();
  for (std::size_t r = 0; r < 3; ++r) {
    const auto a = m.row(r);
    const auto b = back.row(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].col, b[i].col);
      EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    }
  }
}

TEST(Ctmc, MatrixCacheInvalidatedOnMutation) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  // 0 -> 1 plus a self-loop on each state.
  double lambda1 = 0.0;
  EXPECT_EQ(c.uniformized_dtmc(lambda1).num_nonzeros(), 3u);
  c.add_transition(1, 0, 2.0);  // must invalidate the cached matrix
  double lambda2 = 0.0;
  EXPECT_EQ(c.uniformized_dtmc(lambda2).num_nonzeros(), 4u);
  EXPECT_GT(lambda2, lambda1);
  // Copies drop the cache but solve identically.
  const Ctmc d = c;
  double lambda3 = 0.0;
  EXPECT_EQ(d.uniformized_dtmc(lambda3).num_nonzeros(), 4u);
  EXPECT_EQ(lambda3, lambda2);
}

}  // namespace
