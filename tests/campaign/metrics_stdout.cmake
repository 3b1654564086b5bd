# --metrics with neither --out nor --json must still reach the user, run by
# ctest (see the add_test in the top-level CMakeLists): COMMAND, a campaign
# program given --metrics, must exit 0 and print a "== metrics ==" block on
# stdout after its own view of the report.
#
# Expects -DCOMMAND=<program;args...>.

if(NOT COMMAND)
  message(FATAL_ERROR "metrics_stdout.cmake needs -DCOMMAND=...")
endif()

execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${COMMAND}' exited with ${rc}")
endif()
string(FIND "${out}" "== metrics ==" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no '== metrics ==' block on stdout of '${COMMAND}':\n"
                      "${out}")
endif()
