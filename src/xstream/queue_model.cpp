#include "xstream/queue_model.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "lts/product.hpp"
#include "proc/generator.hpp"

namespace multival::xstream {

using namespace multival::proc;

const char* to_string(QueueVariant v) {
  switch (v) {
    case QueueVariant::kCorrect:
      return "correct";
    case QueueVariant::kLostCredit:
      return "lost-credit";
    case QueueVariant::kEagerCredit:
      return "eager-credit";
  }
  return "?";
}

namespace {

/// Name of FIFO slot @p i: "q0", "q1", ...
std::string slot_name(Value i) {
  return std::string("q").append(std::to_string(i));
}

void check_config(const QueueConfig& cfg) {
  if (cfg.capacity < 1 || cfg.capacity > 4) {
    throw std::invalid_argument(
        "virtual_queue: capacity must be in 1..4 (state-space bound)");
  }
  if (cfg.max_value < 0 || cfg.max_value > 3) {
    throw std::invalid_argument("virtual_queue: max_value must be in 0..3");
  }
}

/// The producer-side stage: one packet buffer plus the credit counter.
///   PushSide(cr, have, item)
void define_push_side(Program& p, const QueueConfig& cfg) {
  const Value c = cfg.capacity;
  const Value v = cfg.max_value;
  std::vector<TermPtr> branches;
  // Accept a new packet when the stage is empty.
  branches.push_back(
      guard(evar("have") == lit(0),
            prefix("PUSH", {accept("x", 0, v)},
                   call("PushSide", {evar("cr"), lit(1), evar("x")}))));
  // Forward it over the NoC when a credit is available.
  branches.push_back(
      guard(evar("have") == lit(1) && evar("cr") > lit(0),
            prefix("NET", {emit(evar("item"))},
                   call("PushSide", {evar("cr") - lit(1), lit(0), lit(0)}))));
  // Accept a returned credit (bounded by the FIFO capacity).
  branches.push_back(
      guard(evar("cr") < lit(c),
            prefix("CREDIT",
                   call("PushSide", {evar("cr") + lit(1), evar("have"),
                                     evar("item")}))));
  p.define("PushSide", {"cr", "have", "item"}, choice(std::move(branches)));
}

/// The consumer-side FIFO of capacity C with the credit-return logic.
///   PopSide(len, owe, q0 .. q{C-1})
void define_pop_side(Program& p, const QueueConfig& cfg) {
  const Value c = cfg.capacity;
  const Value v = cfg.max_value;

  std::vector<std::string> params{"len", "owe"};
  for (Value i = 0; i < c; ++i) {
    params.push_back(slot_name(i));
  }
  const auto slot = [](Value i) { return evar(slot_name(i)); };

  // Helper: argument list with substitutions.
  const auto args_with = [&](ExprPtr len, ExprPtr owe,
                             std::vector<ExprPtr> slots) {
    std::vector<ExprPtr> args{std::move(len), std::move(owe)};
    for (auto& s : slots) {
      args.push_back(std::move(s));
    }
    return args;
  };
  const auto current_slots = [&]() {
    std::vector<ExprPtr> s;
    for (Value i = 0; i < c; ++i) {
      s.push_back(slot(i));
    }
    return s;
  };

  std::vector<TermPtr> branches;

  // NET reception: enqueue at position len (one branch per concrete len).
  for (Value fill = 0; fill < c; ++fill) {
    auto slots = current_slots();
    slots[static_cast<std::size_t>(fill)] = evar("x");
    const ExprPtr owe =
        cfg.variant == QueueVariant::kEagerCredit
            ? evar("owe") + lit(1)  // BUG: credit granted on reception
            : evar("owe");
    branches.push_back(guard(
        evar("len") == lit(fill),
        prefix("NET", {accept("x", 0, v)},
               call("PopSide",
                    args_with(evar("len") + lit(1), owe, std::move(slots))))));
  }
  if (cfg.variant == QueueVariant::kEagerCredit) {
    // BUG consequence: with eagerly-granted credits the producer can send
    // into a full FIFO; the packet is dropped.
    branches.push_back(guard(
        evar("len") == lit(c),
        prefix("NET", {accept("x", 0, v)},
               prefix("LOSE", {emit(evar("x"))},
                      call("PopSide", args_with(evar("len"),
                                                evar("owe") + lit(1),
                                                current_slots()))))));
  }

  // POP: deliver the head, shift, and owe a credit back.
  {
    auto slots = current_slots();
    for (Value i = 0; i + 1 < c; ++i) {
      slots[static_cast<std::size_t>(i)] = slot(i + 1);
    }
    slots[static_cast<std::size_t>(c - 1)] = lit(0);
    if (cfg.variant == QueueVariant::kLostCredit) {
      // BUG: the credit is forgotten whenever the pop drains the FIFO
      // (the "queue empty" code path skips the credit return).  One credit
      // leaks per drain until the queue wedges completely.
      auto slots_drain = slots;
      branches.push_back(guard(
          evar("len") > lit(1),
          prefix("POP", {emit(slot(0))},
                 call("PopSide", args_with(evar("len") - lit(1),
                                           evar("owe") + lit(1), slots)))));
      branches.push_back(guard(
          evar("len") == lit(1),
          prefix("POP", {emit(slot(0))},
                 call("PopSide", args_with(evar("len") - lit(1), evar("owe"),
                                           slots_drain)))));
    } else {
      const ExprPtr owe_final = cfg.variant == QueueVariant::kCorrect
                                    ? evar("owe") + lit(1)
                                    : evar("owe");
      branches.push_back(guard(
          evar("len") > lit(0),
          prefix("POP", {emit(slot(0))},
                 call("PopSide", args_with(evar("len") - lit(1), owe_final,
                                           slots)))));
    }
  }

  // Return owed credits to the producer side.
  branches.push_back(
      guard(evar("owe") > lit(0),
            prefix("CREDIT", call("PopSide",
                                  args_with(evar("len"), evar("owe") - lit(1),
                                            current_slots())))));

  p.define("PopSide", std::move(params), choice(std::move(branches)));
}

}  // namespace

Program virtual_queue_program(const QueueConfig& cfg) {
  check_config(cfg);
  Program p;
  define_push_side(p, cfg);
  define_pop_side(p, cfg);

  std::vector<ExprPtr> pop_args{lit(0), lit(0)};
  for (Value i = 0; i < cfg.capacity; ++i) {
    pop_args.push_back(lit(0));
  }
  p.define("VirtualQueue", {},
           par(call("PushSide", {lit(cfg.capacity), lit(0), lit(0)}),
               {"NET", "CREDIT"}, call("PopSide", std::move(pop_args))));
  return p;
}

Program drain_scenario_program(const QueueConfig& cfg, int items) {
  check_config(cfg);
  if (items < 1 || items > 8) {
    throw std::invalid_argument(
        "drain_scenario: items must be in 1..8 (state-space bound)");
  }
  Program p = virtual_queue_program(cfg);
  const Value v = cfg.max_value;
  p.define("Source", {"n"},
           choice({guard(evar("n") > lit(0),
                         prefix("PUSH", {emit(lit(0))},
                                call("Source", {evar("n") - lit(1)}))),
                   guard(evar("n") == lit(0), stop())}));
  p.define("Sink", {"n"},
           choice({guard(evar("n") > lit(0),
                         prefix("POP", {accept("x", 0, v)},
                                call("Sink", {evar("n") - lit(1)}))),
                   guard(evar("n") == lit(0), stop())}));
  p.define("DrainScenario", {},
           par(call("Source", {lit(items)}), {"PUSH"},
               par(call("VirtualQueue"), {"POP"}, call("Sink", {lit(items)}))));
  return p;
}

lts::Lts drain_scenario_lts(const QueueConfig& cfg, int items,
                            compose::Strategy strategy,
                            compose::MinimizeCache* cache) {
  return compose::pipeline_lts(
      std::make_shared<const Program>(drain_scenario_program(cfg, items)),
      "DrainScenario", strategy, {}, cache);
}

lts::Lts virtual_queue_lts_open(const QueueConfig& cfg) {
  return generate(virtual_queue_program(cfg), "VirtualQueue");
}

lts::Lts virtual_queue_lts(const QueueConfig& cfg) {
  const std::vector<std::string> internal{"NET", "CREDIT"};
  return lts::hide(virtual_queue_lts_open(cfg), internal);
}

lts::Lts reference_fifo_lts(const QueueConfig& cfg) {
  check_config(cfg);
  Program p;
  const Value cap = cfg.capacity + 1;  // pop FIFO + the push stage
  const Value v = cfg.max_value;
  std::vector<std::string> params{"len"};
  for (Value i = 0; i < cap; ++i) {
    params.push_back(slot_name(i));
  }
  const auto slot = [](Value i) { return evar(slot_name(i)); };

  std::vector<TermPtr> branches;
  for (Value fill = 0; fill < cap; ++fill) {
    std::vector<ExprPtr> args{evar("len") + lit(1)};
    for (Value i = 0; i < cap; ++i) {
      args.push_back(i == fill ? evar("x") : slot(i));
    }
    branches.push_back(guard(evar("len") == lit(fill),
                             prefix("PUSH", {accept("x", 0, v)},
                                    call("Fifo", std::move(args)))));
  }
  {
    std::vector<ExprPtr> args{evar("len") - lit(1)};
    for (Value i = 0; i + 1 < cap; ++i) {
      args.push_back(slot(i + 1));
    }
    args.push_back(lit(0));
    branches.push_back(guard(evar("len") > lit(0),
                             prefix("POP", {emit(slot(0))},
                                    call("Fifo", std::move(args)))));
  }
  p.define("Fifo", std::move(params), choice(std::move(branches)));

  std::vector<proc::Value> init(static_cast<std::size_t>(cap) + 1, 0);
  return generate(p, "Fifo", init);
}

}  // namespace multival::xstream
