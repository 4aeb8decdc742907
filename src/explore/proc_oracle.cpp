// Process-calculus adapter: wraps proc::TermExplorer, one per clone.  All
// clones share the same immutable Program object and root term, and each
// clone's TermExplorer numbers the reachable terms in the same
// deterministic pre-order, so their canonical state encodings (term index
// plus values, never heap addresses) agree.
#include <stdexcept>
#include <utility>

#include "analyze/analyze.hpp"
#include "explore/oracle.hpp"

namespace multival::explore {

namespace {

class ProcOracle final : public SuccessorOracle {
 public:
  ProcOracle(std::shared_ptr<const proc::Program> program, proc::TermPtr root,
             const proc::GenerateOptions& options)
      : program_(std::move(program)),
        root_(std::move(root)),
        options_(options),
        explorer_(*program_, root_, options_) {}

  std::string initial() override { return explorer_.initial(); }

  void successors(std::string_view state, std::vector<Step>& out) override {
    for (proc::TermExplorer::Move& m : explorer_.successors(state)) {
      out.push_back(Step{std::move(m.label), std::move(m.dst)});
    }
  }

  OraclePtr clone() const override {
    return std::make_unique<ProcOracle>(program_, root_, options_);
  }

 private:
  std::shared_ptr<const proc::Program> program_;
  proc::TermPtr root_;
  proc::GenerateOptions options_;
  proc::TermExplorer explorer_;
};

}  // namespace

OraclePtr term_oracle(std::shared_ptr<const proc::Program> program,
                      proc::TermPtr root,
                      const proc::GenerateOptions& options) {
  if (program == nullptr || root == nullptr) {
    throw std::invalid_argument("term_oracle: null program or root");
  }
  // Pre-flight lint: reject ill-formed models (undefined references, arity
  // mismatches, structural deadlocks, ...) in syntax-polynomial time before
  // committing to a potentially exponential exploration.  Throws
  // analyze::ModelError carrying the structured diagnostics.
  analyze::require_well_formed(*program, root);
  return std::make_unique<ProcOracle>(std::move(program), std::move(root),
                                      options);
}

OraclePtr proc_oracle(std::shared_ptr<const proc::Program> program,
                      std::string_view entry, std::vector<proc::Value> args,
                      const proc::GenerateOptions& options) {
  if (program == nullptr) {
    throw std::invalid_argument("proc_oracle: null program");
  }
  std::vector<proc::ExprPtr> arg_exprs;
  arg_exprs.reserve(args.size());
  for (const proc::Value v : args) {
    arg_exprs.push_back(proc::lit(v));
  }
  proc::TermPtr root = proc::call(entry, std::move(arg_exprs));
  return term_oracle(std::move(program), std::move(root), options);
}

OraclePtr proc_oracle(proc::Program program, std::string_view entry,
                      std::vector<proc::Value> args,
                      const proc::GenerateOptions& options) {
  return proc_oracle(
      std::make_shared<const proc::Program>(std::move(program)), entry,
      std::move(args), options);
}

}  // namespace multival::explore
