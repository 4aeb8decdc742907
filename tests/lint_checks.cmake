# Model lint checks, run by ctest as:
#   cmake -DCLI=<path to multival_cli> -DMODELS=<examples/models dir>
#         -P lint_checks.cmake
#
# CI invariant for the shipped models: every builtin case-study generator
# and every example .proc model lints with zero errors (warnings and
# advisories are allowed — the noc scenarios use the restriction idiom on
# purpose).  A deliberately ill-formed model must fail with the documented
# MV0xx code on stdout, not a crash or a silent pass.
if(NOT DEFINED CLI OR NOT DEFINED MODELS OR NOT DEFINED FABRICS
   OR NOT DEFINED FIXTURES OR NOT DEFINED PROC_FIXTURES)
  message(FATAL_ERROR
    "pass -DCLI=<path to multival_cli> -DMODELS=<examples/models dir> "
    "-DFABRICS=<examples/fabrics dir> -DFIXTURES=<tests/fabrics dir> "
    "-DPROC_FIXTURES=<tests/models dir>")
endif()

function(expect_lint_clean)
  execute_process(COMMAND ${CLI} lint ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "multival_cli lint ${ARGN}: expected exit 0, got ${rc}:\n${out}${err}")
  endif()
endfunction()

# expect_lint_error(<MV code> <lint args...>): exit 1 and the code printed.
function(expect_lint_error code)
  execute_process(COMMAND ${CLI} lint ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "multival_cli lint ${ARGN}: expected exit 1, got ${rc}:\n${out}${err}")
  endif()
  if(NOT out MATCHES "${code}")
    message(FATAL_ERROR
      "multival_cli lint ${ARGN}: expected ${code} in output, got:\n${out}")
  endif()
endfunction()

# (a) every builtin case-study generator is error-free.
expect_lint_clean(--builtin all)

# (b) every example model is error-free, standalone and from its entry.
file(GLOB models ${MODELS}/*.proc)
if(NOT models)
  message(FATAL_ERROR "no .proc models found under ${MODELS}")
endif()
foreach(model IN LISTS models)
  expect_lint_clean(${model})
endforeach()
expect_lint_clean(${MODELS}/mutex.proc System --strict)
expect_lint_clean(${MODELS}/counter.proc Count 0 --strict)

# (c) a never-firing sync gate whose operand is stuck from its initial
# state is the MV003 structural-deadlock error.
file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_gate.proc
  "process Left := A ; Left endproc\n"
  "process Stuck := GO ; stop endproc\n"
  "process System := Left |[GO]| Stuck endproc\n")
expect_lint_error(MV003 ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_gate.proc)
expect_lint_error(MV003 ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_gate.proc
  --json)

# (d) unparseable text is the MV010 diagnostic (with a position), not a
# tool crash.
file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_syntax.proc
  "process P := ; stop endproc\n")
expect_lint_error(MV010 ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_syntax.proc)

# (e) an undefined entry process is caught even when the definitions are
# fine on their own.
expect_lint_error(MV001 ${MODELS}/mutex.proc NoSuchProcess)

# ---- xMAS netlist lint (the xmas subcommand, MV03x) --------------------------

# Same contracts as expect_lint_clean/expect_lint_error, for `xmas --lint`.
function(expect_xmas_clean)
  execute_process(COMMAND ${CLI} xmas ${ARGN} --lint
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "multival_cli xmas ${ARGN} --lint: expected exit 0, got ${rc}:\n"
      "${out}${err}")
  endif()
endfunction()

function(expect_xmas_finding code)
  execute_process(COMMAND ${CLI} xmas ${ARGN} --lint --strict
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "multival_cli xmas ${ARGN} --lint --strict: expected exit 1, got "
      "${rc}:\n${out}${err}")
  endif()
  if(NOT out MATCHES "${code}")
    message(FATAL_ERROR
      "multival_cli xmas ${ARGN} --lint --strict: expected ${code} in "
      "output, got:\n${out}")
  endif()
endfunction()

# (f) every healthy builtin fabric and every example .xmas netlist is
# error-free (mesh2 carries an intentional MV033 warning); the shipped
# seeded-deadlock fabric must fail with MV031.
expect_xmas_clean(--builtin credit-loop)
expect_xmas_clean(--builtin vc-pair)
expect_xmas_clean(--builtin mesh2)
expect_xmas_finding(MV031 --builtin credit-loop-deadlock)
file(GLOB fabrics ${FABRICS}/*.xmas)
if(NOT fabrics)
  message(FATAL_ERROR "no .xmas fabrics found under ${FABRICS}")
endif()
foreach(fabric IN LISTS fabrics)
  expect_xmas_clean(${fabric})
endforeach()

# (g) each golden MV03x fixture fails with its documented code, and its
# repaired twin lints clean even under --strict (warnings promoted).
foreach(check 030 031 032 033)
  expect_xmas_finding(MV${check} ${FIXTURES}/mv${check}_seeded.xmas)
  expect_xmas_clean(${FIXTURES}/mv${check}_repaired.xmas --strict)
endforeach()

# (h) the MV031 seeded deadlock is rejected *structurally*: the lint report
# must state that zero states were generated.
execute_process(COMMAND ${CLI} xmas ${FIXTURES}/mv031_seeded.xmas --lint
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "0 states generated")
  message(FATAL_ERROR
    "mv031_seeded lint: expected exit 1 with '0 states generated', got "
    "${rc}:\n${out}${err}")
endif()

# (i) unparseable .xmas text is the MV010 diagnostic with a position, not a
# crash.
file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_fabric.xmas
  "fabric broken\nqueue q capacity=zero\n")
execute_process(COMMAND ${CLI} xmas
  ${CMAKE_CURRENT_BINARY_DIR}/lint_broken_fabric.xmas --lint
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "MV010")
  message(FATAL_ERROR
    "broken .xmas lint: expected exit 1 with MV010, got ${rc}:\n${out}${err}")
endif()

# ---- MV04x static bound analyzer (lint --bounds) ----------------------------

# (j) the seeded unbounded counter is an MV041 *error* — exit 1 without
# --strict — and the proof is purely static: the report must state that
# zero states were generated.  Its guard-repaired twin lints clean.
execute_process(COMMAND ${CLI} lint ${PROC_FIXTURES}/mv041_seeded.proc
    System --bounds
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "MV041"
   OR NOT out MATCHES "0 states generated")
  message(FATAL_ERROR
    "mv041_seeded lint --bounds: expected exit 1 with MV041 and "
    "'0 states generated', got ${rc}:\n${out}${err}")
endif()
expect_lint_clean(${PROC_FIXTURES}/mv041_repaired.proc System --bounds)

# (k) the seeded over-budget pair: MV042 is an advisory, so it fails the
# lint only under --strict; the narrowed twin emits no MV042 at the very
# same budget.
execute_process(COMMAND ${CLI} lint ${PROC_FIXTURES}/mv042_seeded.proc
    System --bounds --budget 5 --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT out MATCHES "MV042")
  message(FATAL_ERROR
    "mv042_seeded lint --bounds --budget 5 --strict: expected exit 1 "
    "with MV042, got ${rc}:\n${out}${err}")
endif()
execute_process(COMMAND ${CLI} lint ${PROC_FIXTURES}/mv042_repaired.proc
    System --bounds --budget 5
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR out MATCHES "MV042")
  message(FATAL_ERROR
    "mv042_repaired lint --bounds --budget 5: expected exit 0 without "
    "MV042, got ${rc}:\n${out}${err}")
endif()

# (l) --bounds on a model file without an Entry process is a usage error
# (exit 2), not a crash or a silent structural-only pass.
execute_process(COMMAND ${CLI} lint ${PROC_FIXTURES}/mv041_seeded.proc
    --bounds
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "needs an Entry process")
  message(FATAL_ERROR
    "lint --bounds without Entry: expected exit 2 usage error, got "
    "${rc}:\n${out}${err}")
endif()

# (m) the lint report of every builtin case study is pinned byte for byte:
# the text summary, the same with the bound analysis, and its JSON form.
# The recorded files live under tests/lint_golden/; a mismatch leaves the
# actual output next to the build's lint fixtures for diffing.
function(expect_lint_output golden)
  execute_process(COMMAND ${CLI} lint ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  file(READ ${CMAKE_CURRENT_LIST_DIR}/lint_golden/${golden} expected)
  if(NOT rc EQUAL 0 OR NOT "${out}" STREQUAL "${expected}")
    file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/actual_${golden} "${out}")
    message(FATAL_ERROR
      "multival_cli lint ${ARGN}: exit ${rc}, output differs from "
      "tests/lint_golden/${golden} (actual output in "
      "${CMAKE_CURRENT_BINARY_DIR}/actual_${golden})${err}")
  endif()
endfunction()
expect_lint_output(builtin_all.txt --builtin all)
expect_lint_output(builtin_all_bounds.txt --builtin all --bounds)
expect_lint_output(builtin_all_bounds.json --builtin all --bounds --json)

message(STATUS "all model lint checks passed")
