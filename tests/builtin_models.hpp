// The CLI's builtin case studies (multival_cli lint --builtin all) as
// process programs, except noc-mesh: the free mesh under an open
// environment has more states than the generator's cap.  Shared by the
// golden refinement digests and the generate-vs-explore byte identity.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fame/coherence.hpp"
#include "fame/coherence_n.hpp"
#include "noc/mesh.hpp"
#include "proc/process.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"
#include "xstream/queue_model.hpp"

namespace multival::fixtures {

struct BuiltinModel {
  std::string name;
  std::shared_ptr<const proc::Program> program;
  std::string entry;
};

inline std::vector<BuiltinModel> builtin_models() {
  using fame::Protocol;
  std::vector<BuiltinModel> out;
  const auto add = [&](std::string name, proc::Program p, std::string entry) {
    out.push_back({std::move(name),
                   std::make_shared<const proc::Program>(std::move(p)),
                   std::move(entry)});
  };
  add("fame-msi", fame::coherence_system_program(Protocol::kMsi), "System");
  add("fame-mesi", fame::coherence_system_program(Protocol::kMesi), "System");
  add("fame-msi-3", fame::coherence_system_n_program(Protocol::kMsi, 3),
      "SystemN");
  add("fame-mesi-3", fame::coherence_system_n_program(Protocol::kMesi, 3),
      "SystemN");
  add("noc-mesh-3x3",
      noc::single_packet_program(0, 8, true, noc::MeshDims{3, 3}),
      "Scenario");
  add("noc-single-packet", noc::single_packet_program(0, 3), "Scenario");
  add("noc-stream", noc::stream_program({noc::Flow{0, 3}}), "Scenario");
  for (const auto variant :
       {xstream::QueueVariant::kCorrect, xstream::QueueVariant::kLostCredit,
        xstream::QueueVariant::kEagerCredit}) {
    xstream::QueueConfig cfg;
    cfg.variant = variant;
    add(std::string("xstream-") + xstream::to_string(variant),
        xstream::virtual_queue_program(cfg), "VirtualQueue");
  }
  for (const std::string fabric : {"credit-loop", "vc-pair", "mesh2"}) {
    const xmas::Compiled c = xmas::compile(xmas::builtin_fabric(fabric));
    out.push_back({"xmas-" + fabric, c.program, c.entry});
  }
  return out;
}

}  // namespace multival::fixtures
