#include "sim/simulator.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

#include "mc/formula.hpp"

namespace multival::sim {

namespace {

using markov::Ctmc;
using markov::MState;
using markov::RateTransition;

/// Share of the steady-state horizon simulated and discarded before the
/// first batch.
constexpr double kWarmupFraction = 0.1;
/// Safety bound on simulated jumps per trajectory.
constexpr std::size_t kMaxJumps = 50'000'000;

/// Per-state outgoing transitions, pre-indexed for sampling.
struct Walker {
  explicit Walker(const Ctmc& c) : out(c.num_states()) {
    for (std::size_t i = 0; i < c.transitions().size(); ++i) {
      out[c.transitions()[i].src].push_back(i);
    }
    for (MState s = 0; s < c.num_states(); ++s) {
      double e = 0.0;
      for (const std::size_t i : out[s]) {
        e += c.transitions()[i].rate;
      }
      exit.push_back(e);
    }
  }

  std::vector<std::vector<std::size_t>> out;
  std::vector<double> exit;
};

MState sample_initial(const Ctmc& c, std::mt19937_64& rng) {
  const std::vector<double> pi0 = c.initial_distribution();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double x = u(rng);
  for (MState s = 0; s < pi0.size(); ++s) {
    x -= pi0[s];
    if (x <= 0.0) {
      return s;
    }
  }
  return static_cast<MState>(pi0.size() - 1);
}

/// Picks the next transition index from @p s, or -1 if absorbing.
std::ptrdiff_t sample_jump(const Ctmc& c, const Walker& w, MState s,
                           std::mt19937_64& rng) {
  if (w.out[s].empty()) {
    return -1;
  }
  std::uniform_real_distribution<double> u(0.0, w.exit[s]);
  double x = u(rng);
  for (const std::size_t i : w.out[s]) {
    x -= c.transitions()[i].rate;
    if (x <= 0.0) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return static_cast<std::ptrdiff_t>(w.out[s].back());
}

double sample_sojourn(double exit_rate, std::mt19937_64& rng) {
  std::exponential_distribution<double> d(exit_rate);
  return d(rng);
}

Estimate from_batch_means(const std::vector<double>& batch) {
  const std::size_t b = batch.size();
  double mean = 0.0;
  for (const double x : batch) {
    mean += x;
  }
  mean /= static_cast<double>(b);
  double var = 0.0;
  for (const double x : batch) {
    var += (x - mean) * (x - mean);
  }
  var /= static_cast<double>(b - 1);
  Estimate e;
  e.mean = mean;
  e.half_width = 1.96 * std::sqrt(var / static_cast<double>(b));
  e.samples = b;
  return e;
}

/// Generic batch-means long-run estimator: @p contribution adds a batch's
/// accumulated quantity given (transition index or -1 for sojourn-only,
/// sojourn time, state).
template <typename SojournFn, typename JumpFn>
Estimate batch_means_run(const Ctmc& c, const SimOptions& opts,
                         SojournFn&& on_sojourn, JumpFn&& on_jump) {
  if (opts.batches < 2) {
    throw std::invalid_argument("simulate: need at least 2 batches");
  }
  const Walker w(c);
  std::mt19937_64 rng(opts.seed);
  MState s = sample_initial(c, rng);

  const double warmup = opts.horizon * kWarmupFraction;
  const double batch_len = (opts.horizon - warmup) /
                           static_cast<double>(opts.batches);
  // Warm-up.
  double t = 0.0;
  std::size_t jumps = 0;
  while (t < warmup && !w.out[s].empty()) {
    if (++jumps > kMaxJumps) {
      throw std::runtime_error("simulate: jump budget exhausted in warmup");
    }
    t += sample_sojourn(w.exit[s], rng);
    const auto j = sample_jump(c, w, s, rng);
    if (j < 0) {
      break;
    }
    s = c.transitions()[static_cast<std::size_t>(j)].dst;
  }

  std::vector<double> batch(opts.batches, 0.0);
  for (std::size_t b = 0; b < opts.batches; ++b) {
    double bt = 0.0;
    while (bt < batch_len) {
      if (w.out[s].empty()) {
        // Absorbing: remaining time contributes sojourn in s.
        on_sojourn(batch[b], s, batch_len - bt);
        bt = batch_len;
        break;
      }
      if (++jumps > kMaxJumps) {
        throw std::runtime_error("simulate: jump budget exhausted");
      }
      const double dt = sample_sojourn(w.exit[s], rng);
      const double credited = std::min(dt, batch_len - bt);
      on_sojourn(batch[b], s, credited);
      bt += dt;
      if (bt > batch_len) {
        // The jump happens in the next batch's time; approximate by
        // carrying the state over (standard batch-means practice).
      }
      const auto j = sample_jump(c, w, s, rng);
      if (j < 0) {
        break;
      }
      if (bt <= batch_len) {
        on_jump(batch[b], static_cast<std::size_t>(j));
      }
      s = c.transitions()[static_cast<std::size_t>(j)].dst;
    }
    batch[b] /= batch_len;
  }
  return from_batch_means(batch);
}

}  // namespace

Estimate simulate_steady_reward(const Ctmc& c, std::span<const double> reward,
                                const SimOptions& opts) {
  if (reward.size() != c.num_states()) {
    throw std::invalid_argument("simulate_steady_reward: size mismatch");
  }
  return batch_means_run(
      c, opts,
      [&](double& acc, MState s, double dt) { acc += reward[s] * dt; },
      [](double&, std::size_t) {});
}

Estimate simulate_throughput(const Ctmc& c, std::string_view label_glob,
                             const SimOptions& opts) {
  // Precompute which transitions match.
  std::vector<bool> match(c.transitions().size(), false);
  for (std::size_t i = 0; i < c.transitions().size(); ++i) {
    match[i] = mc::glob_match(label_glob, c.transitions()[i].label);
  }
  return batch_means_run(
      c, opts, [](double&, MState, double) {},
      [&](double& acc, std::size_t i) {
        if (match[i]) {
          acc += 1.0;
        }
      });
}

Estimate simulate_absorption_time(const Ctmc& c, const SimOptions& opts) {
  const Walker w(c);
  std::mt19937_64 rng(opts.seed);
  std::vector<double> samples;
  samples.reserve(opts.replications);
  for (std::size_t r = 0; r < opts.replications; ++r) {
    MState s = sample_initial(c, rng);
    double t = 0.0;
    std::size_t jumps = 0;
    while (!w.out[s].empty()) {
      if (++jumps > kMaxJumps) {
        throw std::runtime_error(
            "simulate_absorption_time: trajectory did not absorb");
      }
      t += sample_sojourn(w.exit[s], rng);
      const auto j = sample_jump(c, w, s, rng);
      s = c.transitions()[static_cast<std::size_t>(j)].dst;
    }
    samples.push_back(t);
  }
  return from_batch_means(samples);
}

Estimate simulate_transient_probability(const Ctmc& c,
                                        const std::vector<bool>& set,
                                        double t, const SimOptions& opts) {
  if (set.size() != c.num_states()) {
    throw std::invalid_argument("simulate_transient_probability: size");
  }
  const Walker w(c);
  std::mt19937_64 rng(opts.seed);
  std::size_t hits = 0;
  for (std::size_t r = 0; r < opts.replications; ++r) {
    MState s = sample_initial(c, rng);
    double now = 0.0;
    std::size_t jumps = 0;
    while (!w.out[s].empty()) {
      if (++jumps > kMaxJumps) {
        throw std::runtime_error("simulate_transient_probability: budget");
      }
      const double dt = sample_sojourn(w.exit[s], rng);
      if (now + dt > t) {
        break;
      }
      now += dt;
      const auto j = sample_jump(c, w, s, rng);
      s = c.transitions()[static_cast<std::size_t>(j)].dst;
    }
    if (set[s]) {
      ++hits;
    }
  }
  Estimate e;
  const double n = static_cast<double>(opts.replications);
  e.mean = static_cast<double>(hits) / n;
  e.half_width = 1.96 * std::sqrt(e.mean * (1.0 - e.mean) / n);
  e.samples = opts.replications;
  return e;
}

}  // namespace multival::sim
