// Experiment F5 — "to predict latency, throughputs in the communication
// architecture": throughput and mean latency of the xSTream virtual queue
// as the consumer service rate sweeps across the saturation point.
#include <iostream>

#include "core/report.hpp"
#include "xstream/perf.hpp"

int main() {
  using namespace multival;
  using namespace multival::xstream;

  core::Table t("F5: xSTream throughput & latency vs consumer rate "
                "(push rate 2.0)",
                {"pop rate", "throughput", "mean latency", "utilisation"});
  for (const double mu : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0}) {
    QueuePerfParams p;
    p.push_rate = 2.0;
    p.pop_rate = mu;
    const QueuePerfResult r = analyze_virtual_queue(p);
    t.add_row({core::fmt(mu, 1), core::fmt(r.throughput),
               core::fmt(r.mean_latency), core::fmt(r.utilisation)});
  }
  t.print(std::cout);
  std::cout << "(shape: throughput saturates at min(push, pop) rate; "
               "latency falls as the consumer speeds up)\n";

  core::Table nets("F5b: effect of NoC transfer rate (push 2.0, pop 2.0)",
                   {"net rate", "throughput", "mean latency"});
  for (const double net : {0.5, 1.0, 2.0, 5.0, 20.0}) {
    QueuePerfParams p;
    p.push_rate = 2.0;
    p.pop_rate = 2.0;
    p.net_rate = net;
    p.credit_rate = net;
    const QueuePerfResult r = analyze_virtual_queue(p);
    nets.add_row({core::fmt(net, 1), core::fmt(r.throughput),
                  core::fmt(r.mean_latency)});
  }
  nets.print(std::cout);

  core::Table pipe("F5c: two-stage pipeline (two virtual queues in series)",
                   {"push rate", "throughput", "latency", "occ stage1",
                    "occ stage2"});
  for (const double lambda : {0.5, 1.0, 2.0, 4.0}) {
    PipelinePerfParams p;
    p.push_rate = lambda;
    p.pop_rate = 2.0;
    const PipelineNPerfResult r = analyze_pipeline_n(p, 2);
    pipe.add_row({core::fmt(lambda, 1), core::fmt(r.throughput),
                  core::fmt(r.mean_latency), core::fmt(r.stage_occupancy[0]),
                  core::fmt(r.stage_occupancy[1])});
  }
  pipe.print(std::cout);
  return 0;
}
