# CLI hardening checks, run by ctest as:
#   cmake -DCLI=<path to multival_cli> -P cli_checks.cmake
#
# Every invocation below is malformed (unknown subcommand, unknown,
# incomplete or conflicting flag, bad numeric argument, unknown client
# verb).  Each one must exit nonzero AND print the usage text to stderr.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to multival_cli>")
endif()

function(expect_usage_failure)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR
      "multival_cli ${ARGN}: expected nonzero exit, got 0")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR
      "multival_cli ${ARGN}: expected usage text on stderr, got:\n${err}")
  endif()
  set(usage_error "${err}" PARENT_SCOPE)
endfunction()

expect_usage_failure()                                    # no subcommand
expect_usage_failure(frobnicate)                          # unknown subcommand
expect_usage_failure(gen model.proc Entry --bogus)        # unknown flag
expect_usage_failure(explore model.proc Entry --no-such-flag)
expect_usage_failure(explore model.proc Entry -j banana)  # no -j any more
# The parallel engine's flags are gone: each is an unknown flag, named in
# the error line.
foreach(flag -j --dfs --fp)
  expect_usage_failure(explore model.proc Entry ${flag} 2)
  if(NOT usage_error MATCHES "error: [^\n]*${flag}")
    message(FATAL_ERROR "explore ${flag}: the error must name ${flag}, got:\n"
      "${usage_error}")
  endif()
endforeach()
expect_usage_failure(explore model.proc Entry --plan --flat) # two modes
expect_usage_failure(compose --builtin fame-mesi-3 -j 2)  # joins sequential
expect_usage_failure(lint)                                # nothing to lint
expect_usage_failure(lint --json)                         # still nothing
expect_usage_failure(lint model.proc --bogus)             # unknown flag
expect_usage_failure(lint model.proc --imc m.imc)         # two modes at once
expect_usage_failure(lint --builtin no-such-model)        # unknown builtin
expect_usage_failure(lint --fixed-delay banana)           # bad number
expect_usage_failure(lint --fixed-delay 1 --error-bound 2)
expect_usage_failure(serve --socket)                      # flag missing value
expect_usage_failure(serve --port 1234)                   # unknown flag
expect_usage_failure(serve --socket /tmp/x.sock --queue many)
expect_usage_failure(client --socket /tmp/x.sock frobnicate)
expect_usage_failure(client --socket /tmp/x.sock ping extra-arg)
expect_usage_failure(client --socket /tmp/x.sock check only-one-arg)
expect_usage_failure(dse --no-such-flag)                  # unknown flag
expect_usage_failure(dse --builtin no-such-sweep)         # unknown builtin
expect_usage_failure(dse -j banana)                       # bad number
expect_usage_failure(dse --repeat 0)                      # must be >= 1
expect_usage_failure(dse --spec)                          # flag missing value
expect_usage_failure(dse --spec a.sweep --builtin smoke)  # two sources at once
expect_usage_failure(xmas)                                # nothing to process
expect_usage_failure(xmas --lint)                         # still no input
expect_usage_failure(xmas f.xmas --builtin credit-loop)   # two inputs at once
expect_usage_failure(xmas --builtin no-such-fabric)       # unknown builtin
expect_usage_failure(xmas f.xmas --capacity 2)            # builtin-only flag
expect_usage_failure(xmas --builtin credit-loop --capacity 99)  # out of range
expect_usage_failure(xmas --builtin credit-loop --items banana) # bad number
expect_usage_failure(xmas --builtin credit-loop --lint --solve) # two modes
expect_usage_failure(xmas --builtin credit-loop --no-such-flag)
expect_usage_failure(xmas --builtin credit-loop -o)       # flag missing value

message(STATUS "all CLI usage checks passed")
