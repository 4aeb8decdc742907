// mvbench: runs one workload of the Multival benchmark against the multival
// library and prints one JSON line with the operation counts, the failures
// of the output checks, and the metrics.  perfbench/run.py builds and runs
// it; see perfbench/README.md.
//
//   mvbench --workload W --seed N --seconds S [--trace 0|1] [--tiny]
//           [--inject body|states|status] [--out-dir DIR]
//
// Workloads: dse-sweep, statespace, serve-solve.  With
// --trace 1 the run also writes DIR/W-N.trace.json (Chrome trace events)
// and DIR/W-N.layers.txt (self time per module and per span name).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "mvbench: " << error
            << "\nusage: mvbench --workload dse-sweep|statespace|serve-solve "
               "--seed N --seconds S [--trace 0|1] [--tiny] "
               "[--inject body|states|status] [--out-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--inject") {
        o.inject = value == "body"     ? Inject::kBody
                   : value == "states" ? Inject::kStates
                   : value == "status" ? Inject::kStatus
                                       : (usage("bad --inject " + value),
                                          Inject::kNone);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) {
    usage("--workload is required");
  }
  if (!(o.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  return o;
}

void write_layer_table(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  char buf[160];
  for (const bool by_module : {true, false}) {
    os << (by_module ? "self time by module (timed roots)\n"
                     : "\nself time by span name (all roots)\n");
    std::snprintf(buf, sizeof buf, "%-32s %10s %12s %12s\n", "name", "count",
                  "total_ms", "self_ms");
    os << buf;
    for (const LayerRow& r : trace.rows(by_module, by_module)) {
      std::snprintf(buf, sizeof buf, "%-32s %10zu %12.3f %12.3f\n",
                    r.name.c_str(), r.count, r.total_ms, r.self_ms);
      os << buf;
    }
  }
  os << "\ncoverage " << json_number(trace.coverage()) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Trace trace(opts.trace);
  Outcome out;
  try {
    if (opts.workload == "dse-sweep") {
      out = run_dse_sweep(opts, trace);
    } else if (opts.workload == "statespace") {
      out = run_statespace(opts, trace);
    } else if (opts.workload == "serve-solve") {
      out = run_serve_solve(opts, trace);
    } else {
      usage("unknown workload " + opts.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "mvbench: " << opts.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (opts.trace) {
    out.add("trace.coverage", trace.coverage(), "ratio");
    out.add("trace.spans", static_cast<double>(trace.span_count()), "count");
    const std::string stem =
        opts.out_dir + "/" + opts.workload + "-" + std::to_string(opts.seed);
    trace.write_chrome(stem + ".trace.json");
    write_layer_table(trace, stem + ".layers.txt");
    out.notes.push_back("trace written to " + stem + ".trace.json and " +
                        stem + ".layers.txt");
  }

  std::ostringstream os;
  os << "{\"workload\": " << json_string(opts.workload)
     << ", \"compiler\": " << json_string(compiler())
     << ", \"threads_used\": {";
  for (std::size_t i = 0; i < out.threads_used.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(out.threads_used[i].first)
       << ": " << out.threads_used[i].second;
  }
  os << "}, \"attempted\": " << out.attempted
     << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i == 0 ? "" : ", ") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}, \"notes\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(out.notes[i]);
  }
  os << "], \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(out.failures[i]);
  }
  os << "]}\n";
  std::cout << os.str() << std::flush;
  return 0;
}
