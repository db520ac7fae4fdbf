# Smoke test for the CLI toolchain: assemble a sample program, disassemble
# it, and run it on both simulators, checking outputs end-to-end.
#
# Invoked by ctest with:
#   -DAS=<bor-as> -DDIS=<bor-dis> -DRUN=<bor-run> -DPIPEVIEW=<bor-pipeview>
#   -DGEN=<bor-gen> -DOPT=<bor-opt> -DBENCH=<bor-bench>
#   -DEXAMPLE_ASM=<examples/asm/sampling.s> -DWORKDIR=<scratch dir>

file(MAKE_DIRECTORY ${WORKDIR})
set(SRC ${WORKDIR}/smoke.s)
set(IMG ${WORKDIR}/smoke.borb)

file(WRITE ${SRC} "
; toolchain smoke test: count 1/16-sampled iterations
.alloc hits 8 8
        lc r28, @hits
        lc r2, 4096
loop:
        brr 1/16, sample
back:
        addi r2, r2, -1
        bne r2, r0, loop
        halt
sample:
        ld r15, 0(r28)
        addi r15, r15, 1
        st r15, 0(r28)
        jmp back
")

function(must_run outvar)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "command failed (${RC}): ${ARGN}\n${OUT}\n${ERR}")
  endif()
  set(${outvar} "${OUT}${ERR}" PARENT_SCOPE)
endfunction()

# Assemble.
must_run(AS_OUT ${AS} ${SRC} -o ${IMG})
if(NOT AS_OUT MATCHES "instructions")
  message(FATAL_ERROR "bor-as output unexpected: ${AS_OUT}")
endif()

# Disassemble: must show the brr and the symbol.
must_run(DIS_OUT ${DIS} ${IMG})
if(NOT DIS_OUT MATCHES "brr 1/16")
  message(FATAL_ERROR "bor-dis missing brr: ${DIS_OUT}")
endif()
if(NOT DIS_OUT MATCHES "hits")
  message(FATAL_ERROR "bor-dis missing symbol: ${DIS_OUT}")
endif()

# Functional run with the deterministic decider: exactly 4096/16 samples.
must_run(RUN_OUT ${RUN} ${IMG} --decider=counter --dump-sym=hits)
if(NOT RUN_OUT MATCHES "hits = 256")
  message(FATAL_ERROR "bor-run functional count wrong: ${RUN_OUT}")
endif()

# Timing run: prints cycles and the same sample count.
must_run(TIMING_OUT ${RUN} ${IMG} --timing --decider=counter --dump-sym=hits)
if(NOT TIMING_OUT MATCHES "cycles")
  message(FATAL_ERROR "bor-run --timing missing stats: ${TIMING_OUT}")
endif()
if(NOT TIMING_OUT MATCHES "hits = 256")
  message(FATAL_ERROR "bor-run --timing count wrong: ${TIMING_OUT}")
endif()

# Pipeview: renders stage letters.
must_run(PV_OUT ${PIPEVIEW} ${IMG} --insts=12)
if(NOT PV_OUT MATCHES "F fetch")
  message(FATAL_ERROR "bor-pipeview missing header: ${PV_OUT}")
endif()
if(NOT PV_OUT MATCHES "brr")
  message(FATAL_ERROR "bor-pipeview missing brr row: ${PV_OUT}")
endif()

# Error paths: bad assembly and a corrupt image must fail loudly.
execute_process(COMMAND ${AS} ${WORKDIR}/does-not-exist.s
                RESULT_VARIABLE RC OUTPUT_QUIET ERROR_QUIET)
if(RC EQUAL 0)
  message(FATAL_ERROR "bor-as accepted a missing input")
endif()

file(WRITE ${WORKDIR}/corrupt.borb "NOTB0RB!")
execute_process(COMMAND ${RUN} ${WORKDIR}/corrupt.borb
                RESULT_VARIABLE RC OUTPUT_QUIET ERROR_QUIET)
if(RC EQUAL 0)
  message(FATAL_ERROR "bor-run accepted a corrupt image")
endif()

# bor-gen: generate a kernel and run it to its expected result.
must_run(GEN_OUT ${GEN} kernel:crc32 --framework=brr --interval=64
         --size=2000 -o ${WORKDIR}/crc.borb)
if(NOT GEN_OUT MATCHES "expected result ([0-9]+)")
  message(FATAL_ERROR "bor-gen output unexpected: ${GEN_OUT}")
endif()
set(EXPECTED ${CMAKE_MATCH_1})
must_run(GENRUN_OUT ${RUN} ${WORKDIR}/crc.borb --dump-sym=result)
if(NOT GENRUN_OUT MATCHES "result = ${EXPECTED}")
  message(FATAL_ERROR "generated kernel result mismatch: ${GENRUN_OUT}")
endif()

execute_process(COMMAND ${GEN} kernel:bogus
                RESULT_VARIABLE RC OUTPUT_QUIET ERROR_QUIET)
if(RC EQUAL 0)
  message(FATAL_ERROR "bor-gen accepted an unknown kernel")
endif()

# The shipped assembly example must assemble and run to its known sum.
must_run(EX_OUT ${AS} ${EXAMPLE_ASM} -o ${WORKDIR}/example.borb)
must_run(EXRUN_OUT ${RUN} ${WORKDIR}/example.borb --decider=counter
         --dump-sym=sum --dump-sym=hits)
if(NOT EXRUN_OUT MATCHES "sum = 1250025000")
  message(FATAL_ERROR "asm example sum wrong: ${EXRUN_OUT}")
endif()
if(NOT EXRUN_OUT MATCHES "hits = 781")
  message(FATAL_ERROR "asm example hits wrong: ${EXRUN_OUT}")
endif()

# bor-bench: --list must show every registered experiment.
must_run(LIST_OUT ${BENCH} --list)
foreach(EXPERIMENT fig02 fig09 fig10 fig12 fig13 fig14 ablation sens_lfsr)
  if(NOT LIST_OUT MATCHES "${EXPERIMENT}")
    message(FATAL_ERROR "bor-bench --list missing ${EXPERIMENT}: ${LIST_OUT}")
  endif()
endforeach()

# A scaled-down experiment run must emit JSON-lines that actually parse,
# with the documented header/cell/summary structure.
set(BENCH_JSON ${WORKDIR}/fig09.json)
must_run(BENCH_OUT ${BENCH} --experiment fig09 --scale 100 --threads 2
         --json ${BENCH_JSON})
if(NOT BENCH_OUT MATCHES "Figure 9")
  message(FATAL_ERROR "bor-bench table output unexpected: ${BENCH_OUT}")
endif()
if(NOT EXISTS ${BENCH_JSON})
  message(FATAL_ERROR "bor-bench did not write ${BENCH_JSON}")
endif()
file(STRINGS ${BENCH_JSON} BENCH_LINES)
list(LENGTH BENCH_LINES NUM_LINES)
if(NUM_LINES LESS 3)
  message(FATAL_ERROR "bor-bench JSON too short (${NUM_LINES} lines)")
endif()
list(GET BENCH_LINES 0 HEADER_LINE)
string(JSON HEADER_KIND GET "${HEADER_LINE}" kind)
if(NOT HEADER_KIND STREQUAL "header")
  message(FATAL_ERROR "first JSON record is not a header: ${HEADER_LINE}")
endif()
string(JSON HEADER_NAME GET "${HEADER_LINE}" experiment)
if(NOT HEADER_NAME STREQUAL "fig09")
  message(FATAL_ERROR "header names wrong experiment: ${HEADER_LINE}")
endif()
list(GET BENCH_LINES 1 CELL_LINE)
string(JSON CELL_KIND GET "${CELL_LINE}" kind)
if(NOT CELL_KIND STREQUAL "cell")
  message(FATAL_ERROR "second JSON record is not a cell: ${CELL_LINE}")
endif()
string(JSON CELL_BENCHMARK GET "${CELL_LINE}" params benchmark)
if(CELL_BENCHMARK STREQUAL "")
  message(FATAL_ERROR "cell record missing params.benchmark: ${CELL_LINE}")
endif()
string(JSON CELL_INVOCATIONS GET "${CELL_LINE}" metrics invocations)
if(NOT CELL_INVOCATIONS GREATER 0)
  message(FATAL_ERROR "cell record missing metrics.invocations: ${CELL_LINE}")
endif()
math(EXPR LAST_INDEX "${NUM_LINES} - 1")
list(GET BENCH_LINES ${LAST_INDEX} SUMMARY_LINE)
string(JSON SUMMARY_KIND GET "${SUMMARY_LINE}" kind)
if(NOT SUMMARY_KIND STREQUAL "summary")
  message(FATAL_ERROR "last JSON record is not a summary: ${SUMMARY_LINE}")
endif()

# Unknown experiment names must fail loudly.
execute_process(COMMAND ${BENCH} --experiment fig99
                RESULT_VARIABLE RC OUTPUT_QUIET ERROR_QUIET)
if(RC EQUAL 0)
  message(FATAL_ERROR "bor-bench accepted an unknown experiment")
endif()

# A malformed numeric or named flag value is a usage error: exit status 2
# exactly (an assert abort is 134) and a diagnostic naming the flag,
# never a run with a misread value.
function(must_reject flag)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for bad ${flag}, got ${RC}: "
                        "${ARGN}\n${OUT}\n${ERR}")
  endif()
  if(NOT ERR MATCHES "${flag}")
    message(FATAL_ERROR "diagnostic does not name ${flag}: ${ERR}")
  endif()
endfunction()

file(REMOVE ${WORKDIR}/reject.borb)
must_reject(--max-insts ${RUN} ${IMG} --max-insts=1e6)
must_reject(--max-insts ${RUN} ${IMG} --max-insts=lots)
must_reject(--seed ${RUN} ${IMG} --seed=-1)
must_reject(--ckpt-every ${RUN} ${IMG} --ckpt-dir=${WORKDIR}/ckpt
            --ckpt-every=1e5)
must_reject(--interval ${GEN} micro --framework=brr --interval=1000
            -o ${WORKDIR}/reject.borb)
must_reject(--interval ${GEN} micro --framework=brr --interval=1e3
            -o ${WORKDIR}/reject.borb)
must_reject(--interval ${GEN} micro --framework=cbs --interval=0
            -o ${WORKDIR}/reject.borb)
must_reject(--size ${GEN} micro "--size= 5" -o ${WORKDIR}/reject.borb)
must_reject(--decider ${PIPEVIEW} ${IMG} --decider=bogus)
must_reject(--insts ${PIPEVIEW} ${IMG} --insts=12x)
must_reject(--cold-divisor ${OPT} ${IMG} -o ${WORKDIR}/reject.borb
            --cold-divisor 1e3)
must_reject(--sample-warm ${BENCH} --experiment fig13 --sample
            --sample-warm -1)
if(EXISTS ${WORKDIR}/reject.borb)
  message(FATAL_ERROR "a rejected bor-gen/bor-opt run wrote its output")
endif()

message(STATUS "toolchain smoke test passed")
