#include "markov/steady.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "core/report.hpp"
#include "markov/interval.hpp"

namespace multival::markov {

core::Digraph transition_graph(const Ctmc& c) {
  return core::Digraph::build(c.num_states(), [&](auto&& add) {
    for (const RateTransition& t : c.transitions()) {
      add(t.src, t.dst);
    }
  });
}

BsccDecomposition bscc_decomposition(const Ctmc& c) {
  const core::Digraph g = transition_graph(c);
  core::Components scc = core::scc(g);
  std::vector<bool> bottom = core::bottom_components(g, scc);
  return BsccDecomposition{std::move(scc.component_of), scc.num_components,
                           std::move(bottom)};
}

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// Multiply-adds (and, counted apart, row entries scanned) elimination may
/// spend on a BSCC, per state and transition of it, before the BSCC goes to
/// Gauss–Seidel instead.  The multiply-add ratio is 0 on birth–death chains
/// and at most ~38 on the shipped models (scans: ~52); where fill explodes
/// (the xSTream pipeline: ~1,160; random out-degree-3 chains: 177–347)
/// elimination is 20–3,000× slower than Gauss–Seidel.
constexpr std::size_t kFillBudget = 64;

/// Back-substitution rescales by a power of two, which is exact, whenever a
/// value passes this bound, so a chain whose probabilities span more than
/// the double range loses only the values that truly underflow.
constexpr double kRescaleAbove = 0x1p256;
constexpr double kRescaleBy = 0x1p-256;

/// Numbers the states of a BSCC 0..m-1 in @p members order; every other
/// state of the chain maps to kNone.
std::vector<std::uint32_t> local_ids(
    std::size_t n, const std::vector<std::uint32_t>& members) {
  std::vector<std::uint32_t> local(n, kNone);
  for (std::size_t i = 0; i < members.size(); ++i) {
    local[members[i]] = static_cast<std::uint32_t>(i);
  }
  return local;
}

/// Local steady state of the BSCC of @p m states numbered by @p local
/// (see local_ids) by GTH state reduction (Grassmann, Taksar and Heyman,
/// Operations Research 1985): sparse Gaussian elimination of the balance
/// equations that never subtracts, so every π_i comes out with a small
/// relative error.
///
/// States are eliminated one at a time, smallest Markowitz count
/// (in-degree × out-degree) first, ties by local id.  Eliminating k folds
/// each path i → k → j into r_ij += r_ik · r_kj / S_k, where S_k is the sum
/// of k's remaining out-rates (never a diagonal, so nothing is subtracted);
/// a path with i = j would be a self-loop, which is dropped.  Each
/// eliminated state keeps its reduced in-rates and S_k, and back-
/// substitution in reverse order gives π_k = Σ_i π_i · r_ik / S_k.
///
/// Returns nothing once the multiply-adds would pass kFillBudget × (states
/// + transitions) of the BSCC, or the row entries scanned to place them
/// would: placing predecessor i's fill scans row i, so a hub whose long row
/// outlives its neighbours, eliminated one by one, costs quadratic scans
/// even where multiply-adds are few.
std::optional<std::vector<double>> eliminate_bscc(
    const Ctmc& c, const std::vector<std::uint32_t>& local, std::size_t m) {
  // Rows of (column, rate), parallel edges summed and self-loops dropped.
  std::vector<std::vector<Entry>> row(m);
  for (const RateTransition& t : c.transitions()) {
    const std::uint32_t i = local[t.src];
    if (i != kNone && t.src != t.dst) {
      row[i].push_back(Entry{local[t.dst], t.rate});
    }
  }
  // stamp[j] == tick marks column j for the current pass; pos[j] is then
  // its place in the row at hand, so each fill-in costs O(1).
  std::vector<std::size_t> stamp(m, 0);
  std::vector<std::uint32_t> pos(m, 0);
  std::size_t tick = 0;
  std::size_t transitions = 0;
  std::vector<std::vector<std::uint32_t>> pred(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    std::vector<Entry>& r = row[i];
    ++tick;
    std::size_t kept = 0;
    for (std::size_t p = 0; p < r.size(); ++p) {
      const Entry e = r[p];
      if (stamp[e.col] == tick) {
        r[pos[e.col]].value += e.value;
      } else {
        stamp[e.col] = tick;
        pos[e.col] = static_cast<std::uint32_t>(kept);
        r[kept++] = e;
      }
    }
    r.resize(kept);
    transitions += kept;
    for (const Entry& e : r) {
      pred[e.col].push_back(i);
    }
  }

  // pred[j] may still list eliminated states; in_degree counts live ones.
  std::vector<std::uint32_t> in_degree(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    in_degree[j] = static_cast<std::uint32_t>(pred[j].size());
  }
  const auto markowitz = [&](std::uint32_t s) {
    return std::uint64_t{in_degree[s]} * row[s].size();
  };
  // Lazy min-heap on (Markowitz count, id).  Every live state s keeps an
  // entry keyed key[s] <= its count: s is pushed again only when its count
  // falls below key[s], and a popped key[s] entry below the count goes back
  // in at the count.  The first popped entry equal to its state's count is
  // then the least (count, id), without a push for every count that rises.
  using Candidate = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  std::vector<std::uint64_t> key(m);
  for (std::uint32_t s = 0; s < m; ++s) {
    key[s] = markowitz(s);
    heap.emplace(key[s], s);
  }
  const auto lower_key = [&](std::uint32_t s) {
    const std::uint64_t count = markowitz(s);
    if (count < key[s]) {
      key[s] = count;
      heap.emplace(count, s);
    }
  };

  const std::size_t budget = kFillBudget * (m + transitions);
  std::size_t work = 0;
  std::size_t scanned = 0;
  std::vector<char> eliminated(m, 0);
  std::vector<std::uint32_t> order;  // elimination order, then the survivor
  std::vector<double> exit_sum;      // S_k of order[t]
  std::vector<Entry> in_rates;       // reduced in-rates of order[t] ...
  std::vector<std::size_t> in_end;   // ... end at in_end[t]
  order.reserve(m);
  exit_sum.reserve(m);
  in_end.reserve(m);
  for (std::size_t step = 0; step + 1 < m; ++step) {
    std::uint32_t k = 0;
    for (;;) {
      const auto [count, s] = heap.top();
      heap.pop();
      if (eliminated[s] != 0) {
        continue;
      }
      const std::uint64_t now = markowitz(s);
      if (count == now) {
        k = s;
        break;
      }
      if (count == key[s] && count < now) {
        key[s] = now;
        heap.emplace(now, s);
      }
    }
    std::vector<Entry>& out = row[k];
    std::vector<std::uint32_t>& in = pred[k];
    std::erase_if(in, [&](std::uint32_t i) { return eliminated[i] != 0; });
    ++tick;
    for (const Entry& e : out) {
      stamp[e.col] = tick;
    }
    for (const std::uint32_t i : in) {
      work += out.size() - (stamp[i] == tick ? 1 : 0);
      scanned += row[i].size();
    }
    if (work > budget || scanned > budget) {
      return std::nullopt;
    }
    double s_k = 0.0;
    for (const Entry& e : out) {
      s_k += e.value;
    }
    if (!(s_k > 0.0)) {
      throw SolverFailure("steady_state: zero exit rate inside a BSCC");
    }
    for (Entry& e : out) {
      e.value /= s_k;  // now r_kj / S_k
    }
    eliminated[k] = 1;
    order.push_back(k);
    exit_sum.push_back(s_k);
    for (const std::uint32_t i : in) {
      std::vector<Entry>& r = row[i];
      ++tick;
      std::size_t at_k = 0;
      for (std::size_t p = 0; p < r.size(); ++p) {
        stamp[r[p].col] = tick;
        pos[r[p].col] = static_cast<std::uint32_t>(p);
        if (r[p].col == k) {
          at_k = p;
        }
      }
      const double r_ik = r[at_k].value;
      in_rates.push_back(Entry{i, r_ik});
      for (const Entry& e : out) {
        if (e.col == i) {
          continue;
        }
        const double fill = r_ik * e.value;
        if (stamp[e.col] == tick) {
          r[pos[e.col]].value += fill;
        } else {
          r.push_back(Entry{e.col, fill});
          pred[e.col].push_back(i);
          ++in_degree[e.col];
        }
      }
      r[at_k] = r.back();
      r.pop_back();
    }
    in_end.push_back(in_rates.size());
    for (const Entry& e : out) {
      --in_degree[e.col];
    }
    for (const std::uint32_t i : in) {
      lower_key(i);
    }
    for (const Entry& e : out) {
      lower_key(e.col);
    }
    std::vector<Entry>().swap(out);
    std::vector<std::uint32_t>().swap(in);
  }
  for (std::uint32_t s = 0; s < m; ++s) {
    if (eliminated[s] == 0) {
      order.push_back(s);
    }
  }

  std::vector<double> pi(m, 0.0);
  pi[order.back()] = 1.0;
  for (std::size_t t = m - 1; t-- > 0;) {
    double acc = 0.0;
    for (std::size_t p = t == 0 ? 0 : in_end[t - 1]; p < in_end[t]; ++p) {
      acc += pi[in_rates[p].col] * in_rates[p].value;
    }
    const double v = acc / exit_sum[t];
    pi[order[t]] = v;
    if (v > kRescaleAbove) {
      for (std::size_t u = t; u < m; ++u) {
        pi[order[u]] *= kRescaleBy;
      }
    }
  }
  double sum = 0.0;
  for (const double p : pi) {
    sum += p;
  }
  for (double& p : pi) {
    p /= sum;
  }
  return pi;
}

/// Gauss–Seidel solve of the local steady state of the BSCC of @p m states
/// numbered by @p local, for BSCCs past the elimination budget.
/// Accumulates sweeps into @p iterations for solve telemetry.
std::vector<double> gauss_seidel_bscc(const Ctmc& c,
                                      const std::vector<std::uint32_t>& local,
                                      std::size_t m, const SolverOptions& opts,
                                      std::size_t& iterations) {
  // Incoming edges within the BSCC, in transition order, as one CSR block.
  // Self-loops add equally to inflow and exit, so they are left out of both.
  std::vector<double> exit(m, 0.0);
  std::vector<double> self_rate(m, 0.0);
  std::vector<std::uint32_t> in_start(m + 1, 0);
  for (const RateTransition& t : c.transitions()) {
    const std::uint32_t ls = local[t.src];
    if (ls == kNone) {
      continue;
    }
    // BSCC: all successors stay inside.
    exit[ls] += t.rate;
    if (t.src == t.dst) {
      self_rate[ls] += t.rate;
    } else {
      ++in_start[local[t.dst] + 1];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    in_start[i + 1] += in_start[i];
  }
  std::vector<Entry> in(in_start[m]);
  std::vector<std::uint32_t> next_slot(in_start.begin(), in_start.end() - 1);
  for (const RateTransition& t : c.transitions()) {
    const std::uint32_t ls = local[t.src];
    if (ls != kNone && t.src != t.dst) {
      in[next_slot[local[t.dst]]++] = Entry{ls, t.rate};
    }
  }
  std::vector<double> denom(m);
  for (std::size_t i = 0; i < m; ++i) {
    denom[i] = exit[i] - self_rate[i];
    if (denom[i] <= 0.0) {
      throw SolverFailure("steady_state: zero exit rate inside a BSCC");
    }
  }
  std::vector<double> pi(m, 1.0 / static_cast<double>(m));
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    ++iterations;
    double delta = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double inflow = 0.0;
      for (std::uint32_t p = in_start[i]; p < in_start[i + 1]; ++p) {
        inflow += pi[in[p].col] * in[p].value;
      }
      const double next = inflow / denom[i];
      delta = std::max(delta, std::abs(next - pi[i]));
      pi[i] = next;
    }
    // Normalise.
    double sum = 0.0;
    for (const double p : pi) {
      sum += p;
    }
    if (sum <= 0.0) {
      throw SolverFailure("steady_state: distribution collapsed to zero");
    }
    for (double& p : pi) {
      p /= sum;
    }
    if (delta < opts.tolerance * sum) {
      return pi;
    }
  }
  throw SolverFailure("steady_state: Gauss-Seidel did not converge");
}

/// Balance residual of the distribution @p pi over @p c:
/// max_j |(πQ)_j| / max_i π_i·E_i, with E_i the exit rate of i.
double balance_residual(const Ctmc& c, const std::vector<double>& pi) {
  std::vector<double> net(c.num_states(), 0.0);
  std::vector<double> outflow(c.num_states(), 0.0);
  for (const RateTransition& t : c.transitions()) {
    if (t.src != t.dst) {
      const double flow = pi[t.src] * t.rate;
      net[t.dst] += flow;
      net[t.src] -= flow;
      outflow[t.src] += flow;
    }
  }
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t s = 0; s < net.size(); ++s) {
    worst = std::max(worst, std::abs(net[s]));
    scale = std::max(scale, outflow[s]);
  }
  return scale > 0.0 ? worst / scale : 0.0;
}

}  // namespace

std::vector<double> reachability_probability(const Ctmc& c,
                                             const std::vector<bool>& target,
                                             const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  if (target.size() != n) {
    throw std::invalid_argument("reachability_probability: size mismatch");
  }
  interval::Solve solve("reachability[interval]",
                        interval::Quantity::kProbability, opts);

  // Exact qualitative precomputation on the graph:
  //  prob0 = states that cannot reach the target at all;
  //  prob1 = states that cannot reach prob0 without first passing through
  //          the target (closure computed with target states made
  //          absorbing), i.e. states that reach the target almost surely.
  const core::Digraph pred = transition_graph(c).transpose();
  std::vector<bool> prob0 = core::reach(pred, target);
  prob0.flip();
  const std::vector<bool> not_prob1 =
      core::reach(pred, prob0, /*blocked=*/target);

  const std::vector<double> exits = c.exit_rates();
  std::vector<std::vector<Entry>> out(n);
  for (const RateTransition& t : c.transitions()) {
    out[t.src].push_back(Entry{t.dst, t.rate});
  }

  // The lower vector starts at the qualitative 0/1 assignment, the upper
  // vector at 1 on every quantitative "?" state, and only those are swept.
  interval::Units units;
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (target[s] || !not_prob1[s]) {
      lower[s] = upper[s] = 1.0;
    } else if (!prob0[s]) {
      upper[s] = 1.0;
      units.add(s);
    }
  }
  const auto backup = [&](const std::vector<double>& x,
                          std::span<const std::uint32_t> unit) {
    const std::uint32_t s = unit[0];
    double acc = 0.0;
    double self = 0.0;
    for (const Entry& e : out[s]) {
      if (e.col == s) {
        self += e.value;
      } else {
        acc += e.value * x[e.col];
      }
    }
    const double denom = exits[s] - self;
    if (denom <= 0.0) {
      throw SolverFailure(
          "reachability_probability: self-loop-only state escaped "
          "prob0 precomputation");
    }
    return acc / denom;
  };
  return solve.contract(units, std::move(lower), std::move(upper), backup);
}

std::vector<double> steady_state(const Ctmc& c, const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  if (n == 0) {
    return {};
  }
  const auto t0 = std::chrono::steady_clock::now();
  const BsccDecomposition d = bscc_decomposition(c);
  const std::vector<double> pi0 = c.initial_distribution();

  // Group states by component.
  std::vector<std::vector<std::uint32_t>> members(d.num_components);
  for (std::uint32_t s = 0; s < n; ++s) {
    members[d.component_of[s]].push_back(s);
  }

  std::size_t iterations = 0;
  bool fell_back = false;
  std::vector<double> pi(n, 0.0);
  for (std::uint32_t comp = 0; comp < d.num_components; ++comp) {
    if (!d.is_bottom[comp]) {
      continue;
    }
    // Weight = probability of reaching this BSCC.
    std::vector<bool> target(n, false);
    for (const std::uint32_t s : members[comp]) {
      target[s] = true;
    }
    double weight = 0.0;
    bool need_solve = false;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (pi0[s] > 0.0 && !target[s]) {
        need_solve = true;
      }
    }
    if (need_solve) {
      const std::vector<double> h = reachability_probability(c, target, opts);
      for (std::uint32_t s = 0; s < n; ++s) {
        weight += pi0[s] * h[s];
      }
    } else {
      for (const std::uint32_t s : members[comp]) {
        weight += pi0[s];
      }
    }
    if (weight <= 0.0) {
      continue;
    }
    const std::size_t m = members[comp].size();
    std::vector<double> within{1.0};
    if (m > 1) {
      const std::vector<std::uint32_t> local = local_ids(n, members[comp]);
      std::optional<std::vector<double>> gth = eliminate_bscc(c, local, m);
      if (gth) {
        within = std::move(*gth);
      } else {
        fell_back = true;
        within = gauss_seidel_bscc(c, local, m, opts, iterations);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      pi[members[comp][i]] += weight * within[i];
    }
  }
  core::record_solve(core::SolveStat{
      fell_back ? "steady_state[gauss-seidel]" : "steady_state[gth]", {}, n,
      iterations, balance_residual(c, pi),
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count()});
  return pi;
}

}  // namespace multival::markov
