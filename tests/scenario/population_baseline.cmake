# Byte-identity oracle for the population/* campaigns, run by ctest (see
# the add_test in the top-level CMakeLists). The thread-count cmp in CI
# only proves a run agrees with itself: a fleet queue that pops clients in
# a different order still gives the same bytes at 1 and at 4 threads. This
# pins the report bytes across commits instead:
#
#   1. run both population/* scenarios, 2 trials, seed 7, at 1 and at 4
#      threads;
#   2. each report must be byte-identical (cmake -E compare_files) to the
#      committed bench/baselines/population_trials2.json.
#
# A deliberate behaviour change regenerates the baseline with
#   example_campaign_sweep --filter population/ --trials 2 --seed 7 \
#     --threads 1 --json --out bench/baselines/population_trials2.json
#
# Expects -DSWEEP=<path to example_campaign_sweep>, -DBASELINE=<committed
# report> and -DWORK_DIR=<scratch>.

if(NOT SWEEP OR NOT BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR
          "population_baseline.cmake needs -DSWEEP=..., -DBASELINE=... "
          "and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(threads 1 4)
  set(report "${WORK_DIR}/population-t${threads}.json")
  execute_process(
    COMMAND ${SWEEP} --filter population/ --trials 2 --seed 7
            --threads ${threads} --json --out "${report}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "population run at ${threads} thread(s) failed "
                        "with exit code ${rc}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${BASELINE}" "${report}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "population report at ${threads} thread(s) differs "
                        "from ${BASELINE}")
  endif()
endforeach()

message(STATUS "population_baseline: reports byte-identical at 1 and 4 threads")
