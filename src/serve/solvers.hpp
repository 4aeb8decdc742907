// Request evaluation for the service: parses the payload, derives the
// canonical cache key and runs the corresponding solver.
//
// The same code path is used by the service workers and by tests that
// assert served results are bitwise identical to direct in-process solves:
// every solver underneath is deterministic for any thread count (see
// core/parallel), and results are formatted with round-trip precision
// (%.17g), so equal models always produce byte-identical bodies.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/diag.hpp"
#include "serve/hash.hpp"
#include "serve/protocol.hpp"

namespace multival::serve {

/// True for verbs that run a solver (reach/bounds/check/throughput);
/// control verbs (ping/stats/shutdown) are handled by the service/server.
[[nodiscard]] bool is_solve_verb(Verb v);

/// An ill-formed request: unparseable model/formula/argument, or a model the
/// verb can never solve (e.g. a nondeterministic IMC submitted to reach).
/// Detected by the syntax-polynomial pre-flight in prepare_request, i.e.
/// before any worker runs; the service answers Status::kInvalid with the
/// rendered diagnostics as the body.
class InvalidRequest : public std::runtime_error {
 public:
  explicit InvalidRequest(std::vector<core::Diagnostic> diagnostics)
      : std::runtime_error(core::render_text(diagnostics)),
        diagnostics_(std::move(diagnostics)) {}

  [[nodiscard]] const std::vector<core::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

 private:
  std::vector<core::Diagnostic> diagnostics_;
};

/// A parsed, keyed request ready to run on any worker thread.  The service
/// solves each distinct key once, through run().
struct Prepared {
  CacheKey key;
  std::function<std::string()> run;  ///< deterministic; throws on failure

  /// States of the parsed model payload, known before any worker runs (the
  /// serve tier receives already-generated models, so the "predicted size"
  /// of a request is exact).  The service's admission gate compares it
  /// against ServiceOptions::admission_budget and rejects over-budget
  /// requests with Status::kInvalid and an MV042 diagnostic pre-queue.
  std::size_t model_states = 0;

  /// reach and throughput only (empty for the other verbs): run() split in
  /// two, so that a caller can time its stages apart.  setup() closes the
  /// model into a CTMC; run_shared() solves on the state setup() returned,
  /// and run() is run_shared(setup().get()), so the two give run()'s body
  /// byte for byte.  The traced serve-solve benchmark times closing and
  /// solving through these two fields.
  std::function<std::shared_ptr<void>()> setup;
  std::function<std::string(void*)> run_shared;
};

/// Parses and keys @p r.  Throws InvalidRequest (with MV0xx diagnostics) on
/// malformed payloads/arguments and on models the verb can never solve;
/// std::runtime_error on non-solve verbs.
[[nodiscard]] Prepared prepare_request(const Request& r);

/// Convenience: prepare + run in one call (the "direct in-process solve").
[[nodiscard]] std::string solve_request(const Request& r);

/// Round-trip formatting used for all numeric results ("%.17g").
[[nodiscard]] std::string format_double(double v);

}  // namespace multival::serve
