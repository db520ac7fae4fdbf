# Accuracy gate for the sampled-simulation subsystem: the sample_error
# experiment compares sampled against full detailed runs on the Figure 13
# grid and prints a PASS/FAIL verdict (every cell's IPC and brr-overhead
# within the sampler's own 95% CI plus bias margin). CI fails unless the
# verdict is PASS and the output equals bench/BENCH_sample_error.json byte
# for byte. The records carry no wall-clock, so neither check depends on
# host speed; regenerate the pinned file with
#   bor-bench --experiment sample_error --scale 10 --sample-period 50000
#             --update-baselines
#
# --scale 10 keeps the full-pipeline reference runs affordable (50k chars,
# ~1.5M insts per cell); --sample-period 50000 halves the default period so
# every cell gets ~16 detailed intervals — enough that the CI is meaningful
# on a stream this short.
#
# Invoked by ctest with:
#   -DBENCH=<bor-bench> -DBASELINE_DIR=<the committed bench/ directory>
#   -DWORKDIR=<scratch dir>

file(MAKE_DIRECTORY ${WORKDIR})
set(JSON ${WORKDIR}/sample_error.json)

execute_process(COMMAND ${BENCH} --experiment sample_error --scale 10
                        --sample-period 50000
                        --threads 1 --json ${JSON}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR
          "bor-bench --experiment sample_error failed (${RC}):\n${OUT}\n${ERR}")
endif()

file(READ ${JSON} CONTENT)
if(NOT CONTENT MATCHES "\"verdict\":\"PASS\"")
  message(FATAL_ERROR
          "sample_error verdict is not PASS:\n${OUT}")
endif()

set(COMMITTED ${BASELINE_DIR}/BENCH_sample_error.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${JSON} ${COMMITTED}
                RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
          "sample_error output differs from the pinned ${COMMITTED}; "
          "diff ${JSON} against it")
endif()

message(STATUS "sample validation test passed")
