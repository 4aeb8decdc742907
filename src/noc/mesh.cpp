#include "noc/mesh.hpp"

#include <memory>
#include <stdexcept>


namespace multival::noc {

using namespace multival::proc;

namespace {

std::string link(int from, int to) {
  std::string s = "L";
  s += std::to_string(from);
  s += '_';
  s += std::to_string(to);
  return s;
}

RouterPorts wired_ports(const MeshDims& dims, int node) {
  const int x = dims.x_of(node);
  const int y = dims.y_of(node);
  RouterPorts p = default_ports(dims, node);
  if (x + 1 < dims.width) {
    p.east_out = link(node, node + 1);
    p.east_in = link(node + 1, node);
  }
  if (x > 0) {
    p.west_out = link(node, node - 1);
    p.west_in = link(node - 1, node);
  }
  if (y > 0) {
    p.north_out = link(node, node - dims.width);
    p.north_in = link(node - dims.width, node);
  }
  if (y + 1 < dims.height) {
    p.south_out = link(node, node + dims.width);
    p.south_in = link(node + dims.width, node);
  }
  return p;
}

std::vector<std::string> local_gates(const MeshDims& dims) {
  std::vector<std::string> gates;
  for (int r = 0; r < dims.nodes(); ++r) {
    gates.push_back("LI" + std::to_string(r));
    gates.push_back("LO" + std::to_string(r));
  }
  return gates;
}

void check_node(const MeshDims& dims, int n) {
  if (n < 0 || n >= dims.nodes()) {
    throw std::invalid_argument("noc mesh: node out of range");
  }
}

}  // namespace

std::vector<std::string> mesh_link_gates(const MeshDims& dims) {
  std::vector<std::string> gates;
  for (int n = 0; n < dims.nodes(); ++n) {
    if (dims.x_of(n) + 1 < dims.width) {
      gates.push_back(link(n, n + 1));
      gates.push_back(link(n + 1, n));
    }
    if (dims.y_of(n) + 1 < dims.height) {
      gates.push_back(link(n, n + dims.width));
      gates.push_back(link(n + dims.width, n));
    }
  }
  return gates;
}

proc::Program mesh_program(const MeshDims& dims) {
  Program p;
  for (int n = 0; n < dims.nodes(); ++n) {
    (void)add_router(p, dims, n, wired_ports(dims, n));
  }
  // Fold each row joining consecutive routers on their shared X links,
  // then fold the rows joining on the Y links between adjacent rows.
  std::vector<TermPtr> rows;
  for (int y = 0; y < dims.height; ++y) {
    TermPtr row;
    for (int x = 0; x < dims.width; ++x) {
      const int n = y * dims.width + x;
      TermPtr router = call("Router" + std::to_string(n));
      if (row == nullptr) {
        row = std::move(router);
      } else {
        row = par(std::move(row), {link(n - 1, n), link(n, n - 1)},
                  std::move(router));
      }
    }
    rows.push_back(std::move(row));
  }
  TermPtr mesh;
  for (int y = 0; y < dims.height; ++y) {
    if (mesh == nullptr) {
      mesh = std::move(rows[static_cast<std::size_t>(y)]);
      continue;
    }
    std::vector<std::string> vertical;
    for (int x = 0; x < dims.width; ++x) {
      const int above = (y - 1) * dims.width + x;
      const int below = y * dims.width + x;
      vertical.push_back(link(above, below));
      vertical.push_back(link(below, above));
    }
    mesh = par(std::move(mesh), std::move(vertical),
               std::move(rows[static_cast<std::size_t>(y)]));
  }
  p.define("Mesh", {}, std::move(mesh));
  return p;
}

proc::Program single_packet_program(int src, int dst, bool hide_links,
                                    const MeshDims& dims) {
  check_node(dims, src);
  check_node(dims, dst);
  Program p = mesh_program(dims);
  p.define("Env", {},
           prefix("LI" + std::to_string(src), {emit(lit(dst))},
                  prefix("LO" + std::to_string(dst), {accept("z", dst, dst)},
                         stop())));
  TermPtr scenario = par(call("Mesh"), local_gates(dims), call("Env"));
  if (hide_links) {
    scenario = hide(mesh_link_gates(dims), scenario);
  }
  p.define("Scenario", {}, std::move(scenario));
  return p;
}

lts::Lts single_packet_lts(int src, int dst, bool hide_links,
                           const MeshDims& dims, compose::Strategy strategy,
                           compose::MinimizeCache* cache) {
  return compose::pipeline_lts(
      std::make_shared<const Program>(
          single_packet_program(src, dst, hide_links, dims)),
      "Scenario", strategy, {}, cache);
}

proc::Program stream_program(const std::vector<Flow>& flows, bool hide_links,
                             const MeshDims& dims) {
  if (flows.empty()) {
    throw std::invalid_argument("stream_program: no flows");
  }
  Program p = mesh_program(dims);
  TermPtr envs;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    check_node(dims, flows[i].src);
    check_node(dims, flows[i].dst);
    const std::string name = "Flow" + std::to_string(i);
    p.define(name, {},
             prefix("LI" + std::to_string(flows[i].src),
                    {emit(lit(flows[i].dst))},
                    prefix("LO" + std::to_string(flows[i].dst),
                           {accept("z", flows[i].dst, flows[i].dst)},
                           call(name))));
    envs = envs == nullptr ? call(name) : interleaving(envs, call(name));
  }
  TermPtr scenario = par(call("Mesh"), local_gates(dims), envs);
  if (hide_links) {
    scenario = hide(mesh_link_gates(dims), scenario);
  }
  p.define("Scenario", {}, std::move(scenario));
  return p;
}

lts::Lts stream_lts(const std::vector<Flow>& flows, bool hide_links,
                    const MeshDims& dims, compose::Strategy strategy,
                    compose::MinimizeCache* cache) {
  return compose::pipeline_lts(
      std::make_shared<const Program>(stream_program(flows, hide_links, dims)),
      "Scenario", strategy, {}, cache);
}

}  // namespace multival::noc
