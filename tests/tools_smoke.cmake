# Smoke test for the CLI toolchain: assemble a sample program, disassemble
# it, and run it on both simulators, checking outputs end-to-end.
#
# Invoked by ctest with:
#   -DAS=<bor-as> -DDIS=<bor-dis> -DRUN=<bor-run> -DPIPEVIEW=<bor-pipeview>
#   -DGEN=<bor-gen> -DOPT=<bor-opt> -DBENCH=<bor-bench> -DREPORT=<bor-report>
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

# Save and resume through a checkpoint library: resuming partway, on
# either model, ends with the uninterrupted run's sample count, and a
# second run loads the library instead of building it.
must_run(REF_OUT ${RUN} ${IMG} --dump-sym=hits)
if(NOT REF_OUT MATCHES "hits = [0-9]+\n")
  message(FATAL_ERROR "bor-run printed no hits: ${REF_OUT}")
endif()
set(REF_HITS "${CMAKE_MATCH_0}")
set(LIB_DIR ${WORKDIR}/lib)
file(REMOVE_RECURSE ${LIB_DIR})
foreach(MODEL functional timing)
  set(TIMING_FLAG)
  if(MODEL STREQUAL "timing")
    set(TIMING_FLAG --timing)
  endif()
  must_run(RESUME_OUT ${RUN} ${IMG} --ckpt-dir=${LIB_DIR} --ckpt-every=5000
           --resume-at=7000 ${TIMING_FLAG} --dump-sym=hits)
  if(NOT RESUME_OUT MATCHES "resumed at inst 5000")
    message(FATAL_ERROR "bor-run --resume-at (${MODEL}) did not resume "
                        "from 5000: ${RESUME_OUT}")
  endif()
  if(NOT RESUME_OUT MATCHES "${REF_HITS}")
    message(FATAL_ERROR "bor-run --resume-at (${MODEL}) ended with other "
                        "hits than ${REF_HITS}: ${RESUME_OUT}")
  endif()
endforeach()
if(NOT RESUME_OUT MATCHES "cycles")
  message(FATAL_ERROR "bor-run --resume-at --timing missing stats: "
                      "${RESUME_OUT}")
endif()
must_run(WARM_OUT ${RUN} ${IMG} --ckpt-dir=${LIB_DIR} --ckpt-every=5000
         --resume-at=7000 --counters)
if(NOT WARM_OUT MATCHES "ckpt\\.libraries\\.loaded +1\n")
  message(FATAL_ERROR "second --ckpt-dir run did not load the library: "
                      "${WARM_OUT}")
endif()
if(WARM_OUT MATCHES "ckpt\\.libraries\\.built")
  message(FATAL_ERROR "second --ckpt-dir run rebuilt the library: "
                      "${WARM_OUT}")
endif()

# --max-insts bounds the resume point too: past the budget the run resumes
# from the last checkpoint within it and stops short of the halt (exit 1).
execute_process(COMMAND ${RUN} ${IMG} --ckpt-dir=${LIB_DIR} --ckpt-every=5000
                        --resume-at=100000 --max-insts=6000
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 1 OR NOT OUT MATCHES "resumed at inst 5000")
  message(FATAL_ERROR "--resume-at past --max-insts: expected a resume at "
                      "5000 and exit 1, got ${RC}: ${OUT}\n${ERR}")
endif()

# --max-insts bounds the build pass too: on a program that never halts the
# run stops at the budget (exit 1) and caches no partial library.
file(WRITE ${WORKDIR}/spin.s "
loop:
        addi r2, r2, 1
        jmp loop
")
must_run(SPIN_AS_OUT ${AS} ${WORKDIR}/spin.s -o ${WORKDIR}/spin.borb)
file(REMOVE_RECURSE ${WORKDIR}/spinlib)
execute_process(COMMAND ${RUN} ${WORKDIR}/spin.borb
                        --ckpt-dir=${WORKDIR}/spinlib --ckpt-every=500
                        --resume-at=700 --max-insts=1000
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR
                TIMEOUT 30)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "spin with --max-insts=1000: expected exit 1, got "
                      "${RC}: ${OUT}\n${ERR}")
endif()
file(GLOB SPIN_CACHE ${WORKDIR}/spinlib/*)
if(SPIN_CACHE)
  message(FATAL_ERROR "a build cut short by --max-insts was cached: "
                      "${SPIN_CACHE}")
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
# Unknown flags, such as the removed standalone-snapshot ones, and flags
# that do not combine with --ckpt-dir are named too.
must_reject(--checkpoint ${RUN} ${IMG} --checkpoint=${WORKDIR}/x.borb)
must_reject(--checkpoint-at ${RUN} ${IMG} --checkpoint-at=5)
must_reject(--resume ${RUN} ${IMG} --resume)
must_reject(--print-insts ${RUN} ${IMG} --print-insts=3
            --ckpt-dir=${WORKDIR}/ckpt)
must_reject(--timing ${RUN} ${IMG} --timing --ckpt-dir=${WORKDIR}/ckpt)
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
# Real-valued flags must be finite, non-negative numbers: a NaN threshold
# would flag every metric, and a timeout past the clock's range would
# time every cell out.
foreach(bad nan inf -1 " 5")
  must_reject(--cell-timeout ${BENCH} --experiment fig13 --no-table
              --no-json --cell-timeout ${bad})
endforeach()
must_reject(--threshold-pct ${REPORT} ${WORKDIR} ${WORKDIR}
            --threshold-pct nan)
must_reject(--threshold ${REPORT} ${WORKDIR} ${WORKDIR}
            --threshold roi_cycles=nan)
if(EXISTS ${WORKDIR}/reject.borb)
  message(FATAL_ERROR "a rejected bor-gen/bor-opt run wrote its output")
endif()

message(STATUS "toolchain smoke test passed")
