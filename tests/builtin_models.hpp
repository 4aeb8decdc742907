// The CLI's builtin case studies (multival_cli lint --builtin all) as
// process programs, except noc-mesh: the free mesh under an open
// environment has more states than the generator's cap.  Shared by the
// golden refinement digests, the generate-vs-explore byte identity and the
// planner's component-bound checks.
#pragma once

#include <memory>
#include <set>
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

/// The component terms compose::plan_term flattens @p t into, in term
/// order: it descends through parallel composition and hide and inlines
/// calls of parameterless definitions (recursion stops inlining).
inline void component_terms(const proc::Program& p, const proc::TermPtr& t,
                            std::vector<proc::TermPtr>& out,
                            std::set<std::string>& inlining) {
  switch (t->kind()) {
    case proc::Term::Kind::kPar:
      component_terms(p, t->children()[0], out, inlining);
      component_terms(p, t->children()[1], out, inlining);
      return;
    case proc::Term::Kind::kHide:
      component_terms(p, t->children()[0], out, inlining);
      return;
    case proc::Term::Kind::kCall:
      if (t->args().empty() && p.has_definition(t->callee()) &&
          p.definition(t->callee()).params.empty() &&
          inlining.insert(t->callee()).second) {
        component_terms(p, p.definition(t->callee()).body, out, inlining);
        inlining.erase(t->callee());
        return;
      }
      break;
    default:
      break;
  }
  out.push_back(t);
}

inline std::vector<proc::TermPtr> component_terms(const proc::Program& p,
                                                  const proc::TermPtr& t) {
  std::vector<proc::TermPtr> out;
  std::set<std::string> inlining;
  component_terms(p, t, out, inlining);
  return out;
}

}  // namespace multival::fixtures
