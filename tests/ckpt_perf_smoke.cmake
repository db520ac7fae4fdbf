# Checkpoint-library smoke check on bor-bench:
#
#   1. Plain and library-backed sampled fig13 sweeps both write the JSON
#      pinned in bench/sampled/BENCH_fig13.json, byte for byte.
#   2. The library actually skips re-executed prefix instructions:
#      sample.insts.fast_forward counts only *executed* fast-forward, so
#      the plain run's count must be >= 5x the library run's, with
#      ckpt.insts.skipped / ckpt.resumes / ckpt.pages.shared proving the
#      COW resume path carried the difference.
#   3. A second run against the same --ckpt-dir loads every library from
#      disk (ckpt.libraries.loaded, no build instructions) and reproduces
#      the same pinned JSON — the cross-invocation reuse win.
#   4. Every other timing experiment (fig02, fig12, fig14, ablation) takes
#      the library path too: plain and --ckpt-library sweeps both write
#      the JSON pinned in bench/sampled/, and the library sweep resumes at
#      least once and executes no fast-forward instruction.
#
# Output bytes and counter identities gate; wall-clock is reported but
# never gates (CI machines vary too much for a timing assertion to be
# meaningful). The pinned files are regenerated with
#   bor-bench --experiment E --scale 100 --sample --sample-period 50000
#             --update-baselines --baseline-dir bench/sampled
#
# Invoked by ctest with:
#   -DBENCH=<bor-bench> -DBASELINE_DIR=<the committed bench/ directory>
#   -DWORKDIR=<scratch dir>

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR}/libs)

set(COMMON --scale 100 --sample --sample-period 50000 --threads 2
           --no-table)

# run(<tag> <experiment> [extra bor-bench flags...]): one sweep writing
# ${tag}.json and ${tag}_counters.txt into the workdir.
function(run tag experiment)
  string(TIMESTAMP T0 %s)
  execute_process(COMMAND ${BENCH} --experiment ${experiment} ${COMMON}
                          --json ${WORKDIR}/${tag}.json
                          --counters-out ${WORKDIR}/${tag}_counters.txt
                          ${ARGN}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  string(TIMESTAMP T1 %s)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "bor-bench ${tag} run failed (${RC}):\n${OUT}\n${ERR}")
  endif()
  math(EXPR ELAPSED "${T1} - ${T0}")
  message(STATUS "${tag} sweep took ~${ELAPSED}s (informational only)")
endfunction()

# pinned(<tag> <experiment>): ${tag}.json must equal the committed
# bench/sampled/BENCH_${experiment}.json byte for byte.
function(pinned tag experiment)
  set(committed ${BASELINE_DIR}/sampled/BENCH_${experiment}.json)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORKDIR}/${tag}.json ${committed}
                  RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR
            "${tag}: sampled JSON differs from the pinned ${committed}; "
            "diff ${WORKDIR}/${tag}.json against it")
  endif()
endfunction()

# counter(<out-var> <tag> <name>): extract one "name   value" counter line;
# fails the script when the counter is absent from the snapshot.
function(counter out tag name)
  file(READ ${WORKDIR}/${tag}_counters.txt TEXT)
  string(REGEX MATCH "${name} +([0-9]+)" _ "${TEXT}")
  if("${CMAKE_MATCH_1}" STREQUAL "")
    message(FATAL_ERROR "counter '${name}' missing from ${tag}_counters.txt")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

# counter_or_zero(<out-var> <tag> <name>): as counter(), but an absent
# counter reads as 0 (counters register on first use, so a run that never
# builds a library has no ckpt.build.insts line at all).
function(counter_or_zero out tag name)
  file(READ ${WORKDIR}/${tag}_counters.txt TEXT)
  string(REGEX MATCH "${name} +([0-9]+)" _ "${TEXT}")
  if("${CMAKE_MATCH_1}" STREQUAL "")
    set(${out} 0 PARENT_SCOPE)
  else()
    set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
  endif()
endfunction()

run(plain fig13)
run(lib fig13 --ckpt-dir ${WORKDIR}/libs)

# 1. Both engines write the pinned output.
pinned(plain fig13)
pinned(lib fig13)

# 2. The library run skipped >= 5x of the plain run's executed
#    fast-forward instructions, via real COW resumes.
counter(FF_PLAIN plain "sample\\.insts\\.fast_forward")
counter(FF_LIB lib "sample\\.insts\\.fast_forward")
counter(SKIPPED lib "ckpt\\.insts\\.skipped")
counter(RESUMES lib "ckpt\\.resumes")
counter(SHARED lib "ckpt\\.pages\\.shared")
counter(BUILT lib "ckpt\\.libraries\\.built")

if(FF_PLAIN LESS 1)
  message(FATAL_ERROR "plain run fast-forwarded no instructions")
endif()
math(EXPR NEEDED "5 * ${FF_LIB}")
if(FF_PLAIN LESS NEEDED)
  message(FATAL_ERROR
          "library fast-forward win below 5x: plain executed ${FF_PLAIN} "
          "ff insts, library still executed ${FF_LIB}")
endif()
if(SKIPPED LESS 1 OR RESUMES LESS 1)
  message(FATAL_ERROR
          "COW resume path idle: skipped=${SKIPPED} resumes=${RESUMES}")
endif()
if(SHARED LESS 1)
  message(FATAL_ERROR "no pages COW-shared (ckpt.pages.shared = 0)")
endif()
if(BUILT LESS 1)
  message(FATAL_ERROR "no libraries built (ckpt.libraries.built = 0)")
endif()

# 3. Warm rerun: libraries load from disk, nothing is rebuilt, output is
#    unchanged.
run(warm fig13 --ckpt-dir ${WORKDIR}/libs)
counter(LOADED warm "ckpt\\.libraries\\.loaded")
counter_or_zero(WARM_BUILD_INSTS warm "ckpt\\.build\\.insts")
if(LOADED LESS 1)
  message(FATAL_ERROR "warm rerun loaded no libraries from the cache dir")
endif()
if(WARM_BUILD_INSTS GREATER 0)
  message(FATAL_ERROR
          "warm rerun re-executed ${WARM_BUILD_INSTS} build instructions "
          "despite the populated cache dir")
endif()
pinned(warm fig13)

# 4. The other timing experiments reach the library through the same
#    options value as fig13; dropping the pool on their path would leave
#    their JSON unchanged, so the counters must show the resumes.
foreach(exp fig02 fig12 fig14 ablation)
  run(${exp}_plain ${exp})
  run(${exp}_lib ${exp} --ckpt-library)
  pinned(${exp}_plain ${exp})
  pinned(${exp}_lib ${exp})
  counter(EXP_FF_PLAIN ${exp}_plain "sample\\.insts\\.fast_forward")
  counter(EXP_RESUMES ${exp}_lib "ckpt\\.resumes")
  counter_or_zero(EXP_FF_LIB ${exp}_lib "sample\\.insts\\.fast_forward")
  if(EXP_FF_PLAIN LESS 1)
    message(FATAL_ERROR "${exp}: plain run fast-forwarded no instructions")
  endif()
  if(EXP_RESUMES LESS 1 OR EXP_FF_LIB GREATER 0)
    message(FATAL_ERROR
            "${exp}: library path idle: ckpt.resumes=${EXP_RESUMES}, "
            "executed fast-forward ${EXP_FF_LIB} (plain ${EXP_FF_PLAIN})")
  endif()
  message(STATUS "${exp}: ${EXP_RESUMES} resumes, fast-forward "
                 "${EXP_FF_PLAIN} -> ${EXP_FF_LIB}")
endforeach()

message(STATUS "ckpt perf smoke test passed "
               "(plain ff ${FF_PLAIN} -> library ff ${FF_LIB}, "
               "${SKIPPED} insts resumed over ${RESUMES} resumes, "
               "${LOADED} libraries reloaded warm)")
