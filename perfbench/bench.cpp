#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // Hand the heap that set-up freed back to the kernel first, so the mark
  // starts from what the timed phase holds, not from set-up's high water.
  malloc_trim(0);
  // Writing "5" to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// ---- Lane / Trace ---------------------------------------------------------------

Lane::Scope Lane::open(const char* name, std::uint64_t id) {
  if (!enabled_) {
    return Scope();
  }
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = trace_->now_ns();
  spans_.push_back(s);
  const std::size_t index = spans_.size() - 1;
  stack_.push_back(static_cast<std::int32_t>(index));
  return Scope(this, index);
}

void Lane::close(std::size_t index) {
  spans_[index].end_ns = trace_->now_ns();
  // Scopes nest lexically, so the span being closed is the innermost one.
  if (!stack_.empty() && static_cast<std::size_t>(stack_.back()) == index) {
    stack_.pop_back();
  }
}

Lane& Trace::lane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.emplace_back(this, enabled_, static_cast<int>(lanes_.size()) + 1);
  return lanes_.back();
}

Lane& Trace::off() {
  static Lane disabled(nullptr, false, 0);
  return disabled;
}

namespace {

std::string module_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

/// Per-span self time (ns) and root index of one lane.
struct LaneView {
  std::vector<std::int64_t> self_ns;
  std::vector<std::size_t> root;
};

LaneView view(const Lane& lane) {
  const std::vector<Span>& spans = lane.spans();
  LaneView v;
  v.self_ns.resize(spans.size());
  v.root.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    v.self_ns[i] = spans[i].end_ns - spans[i].start_ns;
    // Parents are opened before their children, so their index is smaller.
    v.root[i] = spans[i].parent < 0
                    ? i
                    : v.root[static_cast<std::size_t>(spans[i].parent)];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      v.self_ns[static_cast<std::size_t>(spans[i].parent)] -=
          spans[i].end_ns - spans[i].start_ns;
    }
  }
  return v;
}

bool under_timed_root(const Lane& lane, const LaneView& v, std::size_t i) {
  return std::string(lane.spans()[v.root[i]].name) == kTimedRoot;
}

}  // namespace

std::vector<LayerRow> Trace::rows(bool by_module, bool timed_only) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerRow> agg;
  for (const Lane& lane : lanes_) {
    const LaneView v = view(lane);
    for (std::size_t i = 0; i < lane.spans().size(); ++i) {
      if (timed_only && !under_timed_root(lane, v, i)) {
        continue;
      }
      const Span& s = lane.spans()[i];
      const std::string key = by_module ? module_of(s.name) : s.name;
      LayerRow& r = agg[key];
      r.name = key;
      ++r.count;
      r.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      r.self_ms += static_cast<double>(v.self_ns[i]) / 1e6;
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, r] : agg) {
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

LayerRow Trace::row(const std::string& name) const {
  for (const LayerRow& r : rows(false, false)) {
    if (r.name == name) {
      return r;
    }
  }
  LayerRow empty;
  empty.name = name;
  return empty;
}

double Trace::coverage() const {
  // Under a timed root, the self times of all spans sum to the root's wall
  // time; the "bench" module's share is the benchmark's own bookkeeping.
  double wall = 0.0;
  double covered = 0.0;
  for (const LayerRow& r : rows(true, true)) {
    wall += r.self_ms;
    if (r.name != "bench") {
      covered += r.self_ms;
    }
  }
  return wall > 0.0 ? covered / wall : 0.0;
}

std::size_t Trace::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    n += lane.spans().size();
  }
  return n;
}

void Trace::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[64];
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans()) {
      os << (first ? "" : ",\n");
      first = false;
      // Microsecond timestamps with nanosecond digits.
      std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.start_ns) / 1e3);
      os << "{\"name\": \"" << s.name << "\", \"cat\": \"" << module_of(s.name)
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << lane.tid()
         << ", \"ts\": " << buf;
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      os << ", \"dur\": " << buf << ", \"args\": {\"id\": " << s.id << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
