# End-to-end checks on the run-manifest / bor-report observatory:
#
#   1. --run-dir writes manifest.json + results + counters.json, and two
#      same-build runs (different thread counts) compare CLEAN (exit 0).
#   2. A synthetic >=10% roi_cycles slowdown in a copied run dir is
#      flagged: bor-report exits nonzero and names the metric.
#   3. Sampled runs write fig13.json and timeseries.json, each
#      byte-identical for --threads 1 and 8 and with --cell-timeout set,
#      and the sampled manifests also compare clean against each other.
#   4. --update-baselines regenerates every committed bench/BENCH_*.json
#      byte-identically at --threads 2, so the baselines stay reproducible
#      from source, do not depend on the thread count, and pin every Zipf
#      draw, LFSR step and AppGen nextBelow behind them. The exceptions
#      are checked where their configuration already runs:
#      BENCH_sample_error.json by sample_validation, bench/sampled/ by
#      ckpt_perf_smoke.
#   5. --list-counters documents every counter a real run publishes.
#   6. --progress jsonl emits machine-readable progress lines on stderr.
#
# Invoked by ctest with:
#   -DBENCH=<bor-bench> -DREPORT=<bor-report>
#   -DBASELINE_DIR=<the committed bench/ directory> -DWORKDIR=<scratch dir>

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run_bench err_out)
  execute_process(COMMAND ${BENCH} ${ARGN}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "bor-bench ${ARGN} failed (${RC}):\n${OUT}\n${ERR}")
  endif()
  set(${err_out} "${ERR}" PARENT_SCOPE)
endfunction()

# 1. Two unsampled run dirs at different thread counts compare clean.
run_bench(ERR_A --experiment fig13 --scale 100 --no-table --threads 1
          --run-dir ${WORKDIR}/runA)
run_bench(ERR_B --experiment fig13 --scale 100 --no-table --threads 2
          --run-dir ${WORKDIR}/runB)
foreach(F manifest.json fig13.json counters.json)
  if(NOT EXISTS ${WORKDIR}/runA/${F})
    message(FATAL_ERROR "--run-dir did not write ${F}")
  endif()
endforeach()
file(READ ${WORKDIR}/runA/manifest.json MANIFEST_TEXT)
string(JSON SCHEMA GET "${MANIFEST_TEXT}" schema)
if(NOT SCHEMA STREQUAL "bor-run-manifest-v1")
  message(FATAL_ERROR "unexpected manifest schema '${SCHEMA}'")
endif()
string(JSON GIT_REV GET "${MANIFEST_TEXT}" build git_rev)
string(JSON SCALE GET "${MANIFEST_TEXT}" config scale)
if(NOT SCALE EQUAL 100)
  message(FATAL_ERROR "manifest config.scale is ${SCALE}, wanted 100")
endif()

execute_process(COMMAND ${REPORT} ${WORKDIR}/runA ${WORKDIR}/runB
                        --out ${WORKDIR}/clean.md
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "clean comparison exited ${RC}:\n${OUT}\n${ERR}")
endif()
file(READ ${WORKDIR}/clean.md CLEAN_MD)
if(NOT CLEAN_MD MATCHES "Verdict: CLEAN")
  message(FATAL_ERROR "clean report lacks CLEAN verdict:\n${CLEAN_MD}")
endif()

# 2. Perturb one cell's roi_cycles by +15% in a copy of runB; the gate
# must trip. The results file is JSON lines, so patch line 2 (first cell).
file(COPY ${WORKDIR}/runB/ DESTINATION ${WORKDIR}/runBad)
file(STRINGS ${WORKDIR}/runBad/fig13.json LINES)
set(PATCHED "")
set(DONE 0)
foreach(LINE IN LISTS LINES)
  if(NOT DONE AND LINE MATCHES "\"kind\":\"cell\"")
    # string(JSON SET) pretty-prints, which would break the one-record-
    # per-line format, so patch the metric textually instead.
    string(JSON CYCLES GET "${LINE}" metrics roi_cycles)
    math(EXPR WORSE "${CYCLES} * 115 / 100")
    string(REGEX REPLACE "\"roi_cycles\":${CYCLES}" "\"roi_cycles\":${WORSE}"
           LINE "${LINE}")
    set(DONE 1)
  endif()
  string(APPEND PATCHED "${LINE}\n")
endforeach()
if(NOT DONE)
  message(FATAL_ERROR "found no cell record to perturb")
endif()
file(WRITE ${WORKDIR}/runBad/fig13.json "${PATCHED}")

execute_process(COMMAND ${REPORT} ${WORKDIR}/runA ${WORKDIR}/runBad
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(RC EQUAL 0)
  message(FATAL_ERROR "15% roi_cycles slowdown not flagged:\n${OUT}")
endif()
if(NOT OUT MATCHES "roi_cycles" OR NOT OUT MATCHES "regression")
  message(FATAL_ERROR "regression report does not name roi_cycles:\n${OUT}")
endif()

# A generous threshold lets the same perturbation through.
execute_process(COMMAND ${REPORT} ${WORKDIR}/runA ${WORKDIR}/runBad
                        --threshold-pct 50
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "--threshold-pct 50 still flagged (+15%):\n${OUT}")
endif()

# 3. Sampled runs: results and timeseries.json are thread-count-invariant.
# A timed cell runs on its own thread and must keep its series tag.
run_bench(ERR_S1 --experiment fig13 --scale 100 --no-table --sample
          --threads 1 --run-dir ${WORKDIR}/runS1)
run_bench(ERR_S8 --experiment fig13 --scale 100 --no-table --sample
          --threads 8 --run-dir ${WORKDIR}/runS8)
run_bench(ERR_ST --experiment fig13 --scale 100 --no-table --sample
          --threads 8 --cell-timeout 600 --run-dir ${WORKDIR}/runST)
if(NOT EXISTS ${WORKDIR}/runS1/timeseries.json)
  message(FATAL_ERROR "sampled --run-dir wrote no timeseries.json")
endif()
foreach(F fig13.json timeseries.json)
  foreach(RUN runS8 runST)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORKDIR}/runS1/${F} ${WORKDIR}/${RUN}/${F}
                    RESULT_VARIABLE DIFF)
    if(NOT DIFF EQUAL 0)
      message(FATAL_ERROR "${F} differs between runS1 (--threads 1) and "
                          "${RUN} (--threads 8; runST adds --cell-timeout)")
    endif()
  endforeach()
endforeach()
execute_process(COMMAND ${REPORT} ${WORKDIR}/runS1 ${WORKDIR}/runS8
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sampled self-comparison exited ${RC}:\n${OUT}\n${ERR}")
endif()
if(NOT OUT MATCHES "Per-interval IPC")
  message(FATAL_ERROR "sampled report has no sparkline section:\n${OUT}")
endif()

# 4. The committed baselines are reproducible: --update-baselines into a
# scratch dir regenerates each byte-identically, and a run dir compares
# clean against the fig13 one.
function(check_baseline experiment scale)
  set(committed ${BASELINE_DIR}/BENCH_${experiment}.json)
  run_bench(ERR_UNUSED --experiment ${experiment} --scale ${scale} --no-table
            --threads 2 --update-baselines --baseline-dir ${WORKDIR}/bench)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORKDIR}/bench/BENCH_${experiment}.json
                          ${committed}
                  RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR
            "--update-baselines does not reproduce committed ${committed}")
  endif()
endfunction()

check_baseline(fig13 100)
check_baseline(pgo_layout 10)
check_baseline(fig09 16)
check_baseline(fig10 16)
check_baseline(sens_lfsr 16)
check_baseline(fig12 20)
check_baseline(hw_cost 1)
check_baseline(kernels 1)
check_baseline(convergent 1)
check_baseline(micro_baseline 1)
check_baseline(mispredict_split 20)
check_baseline(ablation 20)
check_baseline(fig02 20)
check_baseline(fig14 20)
execute_process(COMMAND ${REPORT} ${BASELINE_DIR}/BENCH_fig13.json
                        ${WORKDIR}/runA
                RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR
          "run dir vs committed baseline exited ${RC}:\n${OUT}\n${ERR}")
endif()

# 5. Every counter the runA snapshot holds is documented.
execute_process(COMMAND ${BENCH} --list-counters
                RESULT_VARIABLE RC OUTPUT_VARIABLE LIST ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "--list-counters failed (${RC}):\n${ERR}")
endif()
file(READ ${WORKDIR}/runA/counters.json COUNTERS_TEXT)
string(JSON COUNTERS_OBJ GET "${COUNTERS_TEXT}" counters)
string(JSON NCOUNTERS LENGTH "${COUNTERS_OBJ}")
if(NCOUNTERS LESS 10)
  message(FATAL_ERROR "suspiciously few counters (${NCOUNTERS}) in snapshot")
endif()
math(EXPR LAST "${NCOUNTERS} - 1")
foreach(I RANGE ${LAST})
  string(JSON NAME MEMBER "${COUNTERS_OBJ}" ${I})
  if(NOT LIST MATCHES "${NAME} ")
    message(FATAL_ERROR "counter '${NAME}' missing from --list-counters")
  endif()
endforeach()

# 6. --progress jsonl puts one parseable JSON object per line on stderr.
run_bench(ERR_PROG --experiment fig13 --scale 100 --no-table --no-json
          --progress jsonl)
string(REGEX MATCH "[^\n]*cells_done[^\n]*" PROG_LINE "${ERR_PROG}")
if(PROG_LINE STREQUAL "")
  message(FATAL_ERROR "--progress jsonl emitted no progress line:\n${ERR_PROG}")
endif()
string(JSON DONE_CELLS GET "${PROG_LINE}" cells_done)
string(JSON TOTAL_CELLS GET "${PROG_LINE}" cells_total)
string(JSON EXPNAME GET "${PROG_LINE}" experiment)
if(NOT EXPNAME STREQUAL "fig13" OR DONE_CELLS GREATER TOTAL_CELLS)
  message(FATAL_ERROR "malformed progress line: ${PROG_LINE}")
endif()

message(STATUS "report_smoke: all checks passed")
