# End-to-end smoke of --workers (forked worker processes), run by ctest
# (see the add_test in the top-level CMakeLists). Exercises the failure
# model in one pass:
#
#   1. single-process, single-thread journaled run -> baseline report;
#   2. 4-worker run over the SAME seed, where the worker that claims trial
#      5 SIGKILLs itself before running it (the --dist-kill-trial test
#      hook) — the parent must notice the trial missing from the journal
#      and run it in a second round;
#   3. the two report files must be byte-identical (cmake -E
#      compare_files), which is the --workers contract: process count,
#      scheduling and mid-campaign death may change timing, never bytes;
#   4. the journal must hold a shard numbered 4 or more: the first round's
#      four workers write shards 0..3, so such a shard proves the second
#      round ran rather than the campaign finishing before the kill;
#   5. Table II's stdout redirected to a file (fully buffered) must be the
#      same under --workers 3 as under --threads 2, so no forked worker
#      replays output the parent had buffered.
#
# Expects -DSWEEP=<path to example_campaign_sweep>,
# -DTABLE2=<path to bench_table2_attack_duration> and -DWORK_DIR=<scratch>.

if(NOT SWEEP OR NOT TABLE2 OR NOT WORK_DIR)
  message(FATAL_ERROR
          "dist_smoke.cmake needs -DSWEEP=..., -DTABLE2=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common --trials 2 --seed 4242)

message(STATUS "dist_smoke: baseline single-process run")
execute_process(
  COMMAND ${SWEEP} ${common} --threads 1
          --journal "${WORK_DIR}/journal-base"
          --out "${WORK_DIR}/report-base.txt"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline run failed with exit code ${rc}")
endif()

message(STATUS "dist_smoke: 4-worker run, SIGKILLing the claimer of trial 5")
execute_process(
  COMMAND ${SWEEP} ${common} --workers 4
          --journal "${WORK_DIR}/journal-dist"
          --progress "${WORK_DIR}/progress"
          --dist-kill-trial 5
          --out "${WORK_DIR}/report-dist.txt"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "worker-process run failed with exit code ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/report-base.txt" "${WORK_DIR}/report-dist.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "worker-process report differs from the single-process baseline")
endif()

file(GLOB shards "${WORK_DIR}/journal-dist/shard-*.dtj")
list(LENGTH shards nshards)
set(second_round FALSE)
foreach(shard ${shards})
  get_filename_component(name "${shard}" NAME_WE)
  string(REPLACE "shard-" "" id "${name}")
  math(EXPR id "${id}")
  if(id GREATER_EQUAL 4)
    set(second_round TRUE)
  endif()
endforeach()
if(NOT second_round)
  message(FATAL_ERROR "no shard numbered 4 or more: the second round did not "
                      "run (${nshards} shards)")
endif()

message(STATUS "dist_smoke: Table II stdout, --threads 2 vs --workers 3")
execute_process(
  COMMAND ${TABLE2} --threads 2
  OUTPUT_FILE "${WORK_DIR}/table2-threads.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "Table II --threads 2 failed with exit code ${rc}")
endif()
execute_process(
  COMMAND ${TABLE2} --workers 3 --journal "${WORK_DIR}/journal-table2"
  OUTPUT_FILE "${WORK_DIR}/table2-workers.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "Table II --workers 3 failed with exit code ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/table2-threads.txt" "${WORK_DIR}/table2-workers.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "Table II stdout differs between --threads 2 and "
                      "--workers 3 (a worker replayed buffered output?)")
endif()

message(STATUS "dist_smoke: reports byte-identical across ${nshards} shards "
               "and two rounds; Table II stdout identical")
