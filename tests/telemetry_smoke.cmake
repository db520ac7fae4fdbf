# End-to-end telemetry checks on bor-bench:
#
#   1. --trace writes a well-formed Chrome trace-event JSON object with at
#      least one experiment-cell span (validated with cmake's string(JSON)),
#      and a --cell-timeout run writes as many cell spans as a run without.
#   2. --counters-out snapshots are byte-identical for --threads 1 and 8.
#   3. The heartbeat stays off when stderr is not a TTY, also with the
#      retired BOR_HEARTBEAT=1 set, and --progress text forces it on.
#
# Invoked by ctest with:
#   -DBENCH=<bor-bench> -DWORKDIR=<scratch dir>

file(MAKE_DIRECTORY ${WORKDIR})
set(TRACE ${WORKDIR}/fig13_trace.json)
set(C1 ${WORKDIR}/counters_t1.txt)
set(C8 ${WORKDIR}/counters_t8.txt)

function(run_bench threads counters_out trace_args err_out)
  execute_process(COMMAND ${BENCH} --experiment fig13 --scale 100
                          --threads ${threads} --no-table
                          --counters-out ${counters_out} ${trace_args}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
            "bor-bench --threads ${threads} failed (${RC}):\n${OUT}\n${ERR}")
  endif()
  set(${err_out} "${ERR}" PARENT_SCOPE)
endfunction()

run_bench(8 ${C8} --trace=${TRACE} ERR8)
run_bench(1 ${C1} "" ERR1)
set(TRACE_TIMED ${WORKDIR}/fig13_trace_timed.json)
run_bench(8 ${WORKDIR}/counters_timed.txt
          "--trace=${TRACE_TIMED};--cell-timeout;600" ERR_TIMED)

# Checks that \p trace is a well-formed trace with no dropped events
# (string(JSON) fails the script on malformed JSON) and sets \p out to its
# number of experiment-cell spans.
function(count_cell_spans trace out)
  file(READ ${trace} TEXT)
  string(JSON NEVENTS LENGTH "${TEXT}" traceEvents)
  if(NEVENTS LESS 1)
    message(FATAL_ERROR "${trace} has no events")
  endif()
  string(JSON DROPPED GET "${TEXT}" otherData dropped_events)
  if(NOT DROPPED EQUAL 0)
    message(FATAL_ERROR "${trace} dropped ${DROPPED} events at bench scale")
  endif()
  set(CELLS 0)
  math(EXPR LAST "${NEVENTS} - 1")
  foreach(I RANGE ${LAST})
    string(JSON NAME GET "${TEXT}" traceEvents ${I} name)
    string(JSON PH GET "${TEXT}" traceEvents ${I} ph)
    if(NAME STREQUAL "cell" AND PH STREQUAL "X")
      math(EXPR CELLS "${CELLS} + 1")
    endif()
  endforeach()
  set(${out} ${CELLS} PARENT_SCOPE)
endfunction()

# 1. Trace well-formedness and cell spans, with and without a timeout.
count_cell_spans(${TRACE} CELLS)
if(CELLS LESS 1)
  message(FATAL_ERROR "trace contains no experiment-cell span")
endif()
count_cell_spans(${TRACE_TIMED} CELLS_TIMED)
if(NOT CELLS_TIMED EQUAL CELLS)
  message(FATAL_ERROR "--cell-timeout trace has ${CELLS_TIMED} cell spans, "
                      "the untimed trace ${CELLS}")
endif()

# 2. Counter snapshots must not depend on the worker count.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${C1} ${C8}
                RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
          "counter snapshot differs between --threads 1 and 8: ${C1} vs ${C8}")
endif()

# 3a. stderr is a pipe here, so no heartbeat lines may appear.
if(ERR8 MATCHES "\\[bor-bench\\]")
  message(FATAL_ERROR "heartbeat printed to a non-TTY stderr:\n${ERR8}")
endif()

# 3b. The environment no longer selects the heartbeat: BOR_HEARTBEAT=1
# alone leaves it off.
execute_process(COMMAND ${CMAKE_COMMAND} -E env BOR_HEARTBEAT=1
                        ${BENCH} --experiment fig13 --scale 100
                        --threads 2 --no-table --no-json
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "bor-bench with BOR_HEARTBEAT=1 failed (${RC}):\n${ERR}")
endif()
if(ERR MATCHES "\\[bor-bench\\]")
  message(FATAL_ERROR "BOR_HEARTBEAT=1 turned the heartbeat on:\n${ERR}")
endif()

# 3c. --progress text forces it on regardless of the TTY.
execute_process(COMMAND ${BENCH} --experiment fig13 --scale 100
                        --threads 2 --no-table --no-json --progress text
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "bor-bench --progress text failed (${RC}):\n${ERR}")
endif()
if(NOT ERR MATCHES "\\[bor-bench\\] fig13: .*cells")
  message(FATAL_ERROR "--progress text produced no heartbeat line:\n${ERR}")
endif()

message(STATUS "telemetry smoke test passed")
