#include "noc/router.hpp"

#include <set>
#include <stdexcept>
#include <vector>

#include "proc/generator.hpp"

namespace multival::noc {

using namespace multival::proc;

namespace {

void check_node(const MeshDims& dims, int node) {
  if (dims.width < 1 || dims.height < 1 || dims.nodes() > 16) {
    throw std::invalid_argument("noc: mesh must be between 1x1 and 16 nodes");
  }
  if (dims.buffer_depth < 1 || dims.buffer_depth > 3) {
    throw std::invalid_argument("noc: buffer_depth must be in 1..3");
  }
  if (node < 0 || node >= dims.nodes()) {
    throw std::invalid_argument("noc: node out of range");
  }
}

}  // namespace

RouterPorts default_ports(const MeshDims& dims, int node) {
  check_node(dims, node);
  const int x = dims.x_of(node);
  const int y = dims.y_of(node);
  const std::string id = std::to_string(node);
  RouterPorts p;
  p.local_in = "LI" + id;
  p.local_out = "LO" + id;
  if (x + 1 < dims.width) {
    p.east_in = "EI" + id;
    p.east_out = "EO" + id;
  }
  if (x > 0) {
    p.west_in = "WI" + id;
    p.west_out = "WO" + id;
  }
  if (y > 0) {
    p.north_in = "NI" + id;
    p.north_out = "NO" + id;
  }
  if (y + 1 < dims.height) {
    p.south_in = "SI" + id;
    p.south_out = "SO" + id;
  }
  return p;
}

std::string add_router(proc::Program& program, const MeshDims& dims, int node,
                       const RouterPorts& ports) {
  check_node(dims, node);
  const int x = dims.x_of(node);
  const int y = dims.y_of(node);
  const std::string id = std::to_string(node);

  // Internal request gates, one per output direction plus local.
  const std::string rq_e = "RQE" + id;
  const std::string rq_w = "RQW" + id;
  const std::string rq_n = "RQN" + id;
  const std::string rq_s = "RQS" + id;
  const std::string rq_l = "RQL" + id;

  // XY routing decision for a packet destined to @p d.
  const auto request_gate = [&](int d) -> std::string {
    const int dx = dims.x_of(d);
    const int dy = dims.y_of(d);
    if (dx > x) {
      return rq_e;
    }
    if (dx < x) {
      return rq_w;
    }
    if (dy > y) {
      return rq_s;
    }
    if (dy < y) {
      return rq_n;
    }
    return rq_l;
  };

  // Which destinations may legally arrive on each input under XY order.
  const auto valid_local = [&](int) { return true; };
  // From the west neighbour (travelling east): still east of us or done X.
  const auto valid_from_west = [&](int d) { return dims.x_of(d) >= x; };
  const auto valid_from_east = [&](int d) { return dims.x_of(d) <= x; };
  // Y traffic has finished its X leg.
  const auto valid_from_north = [&](int d) {
    return dims.x_of(d) == x && dims.y_of(d) >= y;
  };
  const auto valid_from_south = [&](int d) {
    return dims.x_of(d) == x && dims.y_of(d) <= y;
  };

  std::vector<TermPtr> port_processes;
  // Request gates some port actually touches.  Edge routers have no west /
  // north / ... neighbour, and a gate no side performs must stay out of the
  // sync and hide sets below (the lint flags it as MV005/MV007 dead weight).
  std::set<std::string> used_requests;

  // Each input port is a FIFO of depth dims.buffer_depth holding packet
  // headers; accepting and forwarding interleave (cut-through style).
  const int depth = dims.buffer_depth;
  const auto in_port = [&](const std::string& name,
                           const std::string& in_gate, auto&& valid) {
    if (in_gate.empty()) {
      return;
    }
    const auto slot_name = [](int b) {
      return std::string("q").append(std::to_string(b));
    };
    std::vector<std::string> fifo_params{"len"};
    for (int b = 0; b < depth; ++b) {
      fifo_params.push_back(slot_name(b));
    }
    const auto slot = [&](int b) { return evar(slot_name(b)); };
    std::vector<TermPtr> branches;
    // Accept a packet into slot "len" (one branch per fill level and
    // destination so sync stays value-exact).
    for (int fill = 0; fill < depth; ++fill) {
      for (int d = 0; d < dims.nodes(); ++d) {
        if (!valid(d)) {
          continue;
        }
        std::vector<ExprPtr> args{evar("len") + lit(1)};
        for (int b = 0; b < depth; ++b) {
          args.push_back(b == fill ? lit(d) : slot(b));
        }
        branches.push_back(guard(
            evar("len") == lit(fill),
            prefix(in_gate, {accept("d", d, d)},
                   call(name, std::move(args)))));
      }
    }
    // Forward the head to its output-port request gate.
    for (int d = 0; d < dims.nodes(); ++d) {
      if (!valid(d)) {
        continue;
      }
      std::vector<ExprPtr> args{evar("len") - lit(1)};
      for (int b = 0; b + 1 < depth; ++b) {
        args.push_back(slot(b + 1));
      }
      args.push_back(lit(0));
      used_requests.insert(request_gate(d));
      branches.push_back(guard(
          evar("len") > lit(0) && slot(0) == lit(d),
          prefix(request_gate(d), {emit(lit(d))},
                 call(name, std::move(args)))));
    }
    program.define(name, std::move(fifo_params),
                   choice(std::move(branches)));
    std::vector<ExprPtr> init(static_cast<std::size_t>(depth) + 1);
    for (auto& a : init) {
      a = lit(0);
    }
    port_processes.push_back(call(name, std::move(init)));
  };

  in_port("InL" + id, ports.local_in, valid_local);
  in_port("InW" + id, ports.west_in, valid_from_west);
  in_port("InE" + id, ports.east_in, valid_from_east);
  in_port("InN" + id, ports.north_in, valid_from_north);
  in_port("InS" + id, ports.south_in, valid_from_south);

  const auto out_port = [&](const std::string& name,
                            const std::string& req_gate,
                            const std::string& out_gate) {
    if (out_gate.empty()) {
      return;
    }
    used_requests.insert(req_gate);
    program.define(name, {},
                   prefix(req_gate, {accept("d", 0, dims.nodes() - 1)},
                          prefix(out_gate, {emit(evar("d"))}, call(name))));
    port_processes.push_back(call(name));
  };
  out_port("OutL" + id, rq_l, ports.local_out);
  out_port("OutE" + id, rq_e, ports.east_out);
  out_port("OutW" + id, rq_w, ports.west_out);
  out_port("OutN" + id, rq_n, ports.north_out);
  out_port("OutS" + id, rq_s, ports.south_out);

  // Interleave the input side, interleave the output side, then join them
  // on the request gates.
  const std::size_t inputs =
      1 + (ports.west_in.empty() ? 0 : 1) + (ports.east_in.empty() ? 0 : 1) +
      (ports.north_in.empty() ? 0 : 1) + (ports.south_in.empty() ? 0 : 1);
  TermPtr in_side;
  TermPtr out_side;
  for (std::size_t i = 0; i < port_processes.size(); ++i) {
    TermPtr& side = i < inputs ? in_side : out_side;
    side = side == nullptr ? port_processes[i]
                           : interleaving(side, port_processes[i]);
  }

  std::vector<std::string> requests;
  for (const auto& gate : {rq_e, rq_w, rq_n, rq_s, rq_l}) {
    if (used_requests.count(gate) != 0) {
      requests.push_back(gate);
    }
  }
  const std::string entry = "Router" + id;
  program.define(entry, {},
                 hide(requests, par(in_side, requests, out_side)));
  return entry;
}

lts::Lts router_lts(int node, const MeshDims& dims) {
  proc::Program p;
  const std::string entry = add_router(p, dims, node, default_ports(dims, node));
  return generate(p, entry);
}

}  // namespace multival::noc
