#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace multival::core {

namespace {

std::mutex& solve_mutex() {
  static std::mutex mu;
  return mu;
}

struct SolveLog {
  std::vector<SolveStat> entries;
  std::size_t dropped = 0;
};

SolveLog& solve_entries() {
  static SolveLog log;
  return log;
}

/// Bounded so that long property-test sweeps cannot grow without limit.
constexpr std::size_t kSolveLogCap = 4096;

std::string& solve_context_name() {
  thread_local std::string name;
  return name;
}

SolveSink*& solve_sink() {
  thread_local SolveSink* sink = nullptr;
  return sink;
}

}  // namespace

void record_solve(SolveStat stat) {
  if (SolveSink* sink = solve_sink()) {
    sink->fold(stat);
    return;
  }
  if (stat.context.empty()) {
    stat.context = SolveContext::current();
  }
  const std::lock_guard<std::mutex> lock(solve_mutex());
  SolveLog& log = solve_entries();
  if (log.entries.size() >= kSolveLogCap) {
    ++log.dropped;
    return;
  }
  log.entries.push_back(std::move(stat));
}

std::vector<SolveStat> solve_log() {
  const std::lock_guard<std::mutex> lock(solve_mutex());
  return solve_entries().entries;
}

std::size_t solve_log_dropped() {
  const std::lock_guard<std::mutex> lock(solve_mutex());
  return solve_entries().dropped;
}

void clear_solve_log() {
  const std::lock_guard<std::mutex> lock(solve_mutex());
  solve_entries().entries.clear();
  solve_entries().dropped = 0;
}

Table solve_table() {
  Table t("numerical solves",
          {"solver", "model", "states", "iters", "residual", "time (ms)"});
  for (const SolveStat& s : solve_log()) {
    t.add_row({s.solver, s.context.empty() ? "-" : s.context,
               std::to_string(s.states), std::to_string(s.iterations),
               fmt_sci(s.residual), fmt(s.seconds * 1e3, 3)});
  }
  return t;
}

SolveSink::Scope::Scope(SolveSink& sink) : previous_(solve_sink()) {
  solve_sink() = &sink;
}

SolveSink::Scope::~Scope() { solve_sink() = previous_; }

void SolveSink::fold(const SolveStat& stat) {
  const MutexLock lock(mu_);
  ++totals_.solves;
  totals_.iterations += stat.iterations;
  totals_.max_residual = std::max(totals_.max_residual, stat.residual);
}

SolveAggregate SolveSink::totals() const {
  const MutexLock lock(mu_);
  return totals_;
}

SolveContext::SolveContext(std::string name)
    : previous_(std::move(solve_context_name())) {
  solve_context_name() = std::move(name);
}

SolveContext::~SolveContext() {
  solve_context_name() = std::move(previous_);
}

const std::string& SolveContext::current() {
  return solve_context_name();
}

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: no columns");
  }
}

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: wrong number of cells");
  }
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  os << "== " << title_ << " ==\n";
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(width[c])) << row[c];
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = headers_.empty() ? 0 : 2 * (headers_.size() - 1);
  for (const std::size_t w : width) {
    total += w;
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
  os << '\n';
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string fmt(double v, int precision) {
  if (std::isinf(v)) {
    return v > 0 ? "inf" : "-inf";
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_sci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_ci(double mean, double half_width, int precision) {
  return fmt(mean, precision) + " (+/- " + fmt(half_width, precision) + ")";
}

}  // namespace multival::core
