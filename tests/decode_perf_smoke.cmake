# Decoded-execution engine smoke check on bor-bench:
#
#   1. A sampled fig13 run publishes live decode-layer counters: at least
#      one program decoded (interp.decode.programs) with a plausible image
#      (insts >= programs >= 1).
#   2. Fast-forward actually executes through the block-chained dispatch
#      path: interp.block.chains/insts/blocks are nonzero and every
#      fast-forwarded instruction is accounted to a chain
#      (interp.block.insts >= sample.insts.fast_forward).
#
# Counter identities gate; wall-clock is reported but never gates (CI
# machines vary too much for a timing assertion to be meaningful).
#
# Invoked by ctest with:
#   -DBENCH=<bor-bench> -DWORKDIR=<scratch dir>

file(MAKE_DIRECTORY ${WORKDIR})
set(COUNTERS ${WORKDIR}/counters_sampled.txt)

string(TIMESTAMP T0 %s)
execute_process(COMMAND ${BENCH} --experiment fig13 --scale 100
                        --sample --sample-period 50000
                        --threads 2 --no-table
                        --counters-out ${COUNTERS}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
string(TIMESTAMP T1 %s)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "bor-bench sampled fig13 failed (${RC}):\n${OUT}\n${ERR}")
endif()
math(EXPR ELAPSED "${T1} - ${T0}")
message(STATUS "sampled fig13 took ~${ELAPSED}s (informational only)")

file(READ ${COUNTERS} TEXT)

# counter(<out-var> <name>): extract one "name   value" line; fails the
# script when the counter is absent from the snapshot.
function(counter out name)
  string(REGEX MATCH "${name} +([0-9]+)" _ "${TEXT}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "counter '${name}' missing from ${COUNTERS}")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

counter(DEC_PROGRAMS "interp\\.decode\\.programs")
counter(DEC_INSTS "interp\\.decode\\.insts")
counter(CHAINS "interp\\.block\\.chains")
counter(CHAIN_INSTS "interp\\.block\\.insts")
counter(CHAIN_BLOCKS "interp\\.block\\.blocks")
counter(FF_INSTS "sample\\.insts\\.fast_forward")

# 1. Decode layer is alive and the image shape is sane.
if(DEC_PROGRAMS LESS 1)
  message(FATAL_ERROR "no programs decoded (interp.decode.programs = 0)")
endif()
if(DEC_INSTS LESS DEC_PROGRAMS)
  message(FATAL_ERROR "implausible decoded image: ${DEC_INSTS} insts, "
                      "${DEC_PROGRAMS} programs")
endif()

# 2. Fast-forward runs through the chained dispatch path.
if(CHAINS LESS 1 OR CHAIN_INSTS LESS 1 OR CHAIN_BLOCKS LESS 1)
  message(FATAL_ERROR
          "chained dispatch idle: chains=${CHAINS} insts=${CHAIN_INSTS} "
          "blocks=${CHAIN_BLOCKS}")
endif()
if(FF_INSTS LESS 1)
  message(FATAL_ERROR "sampled run fast-forwarded no instructions")
endif()
if(CHAIN_INSTS LESS FF_INSTS)
  message(FATAL_ERROR
          "fast-forward bypassed the chained path: interp.block.insts="
          "${CHAIN_INSTS} < sample.insts.fast_forward=${FF_INSTS}")
endif()

message(STATUS "decode perf smoke test passed "
               "(${CHAIN_INSTS} chained insts over ${CHAINS} chains)")
