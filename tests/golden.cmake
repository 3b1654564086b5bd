# Golden-output gate, run by ctest for every golden_* test (see add_golden
# in the top-level CMakeLists; bench/baselines/README.md lists the goldens).
# Runs one command and compares what it produced with a committed file,
# byte for byte (cmake -E compare_files):
#
#   -DCOMMAND=<program;arg;...>  the command line as a CMake list. A list
#                                drops empty elements, so the element
#                                <empty> stands for an empty argument
#                                (`--filter <empty>` selects every scenario);
#   -DGOLDEN=<path>              the committed file;
#   -DWORK_DIR=<dir>             emptied before the run; the command's
#                                stdout is saved there as stdout.txt;
#   -DACTUAL=<path>              optional: compare this file, which the
#                                command writes itself (its --out report),
#                                instead of the stdout.
#
# The command must exit 0. On a mismatch the first differing line of each
# file is printed and the output stays in WORK_DIR for inspection. With
# DNSTIME_UPDATE_GOLDEN=1 in the environment the golden is rewritten from
# the output instead.

foreach(var COMMAND GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(stdout "${WORK_DIR}/stdout.txt")
if(NOT DEFINED ACTUAL)
  set(ACTUAL "${stdout}")
endif()

# Bracket-quote every argument so that <empty> can become a real "".
set(args "")
foreach(arg IN LISTS COMMAND)
  if(arg STREQUAL "<empty>")
    set(arg "")
  endif()
  string(APPEND args " [==[${arg}]==]")
endforeach()
cmake_language(EVAL CODE "
  execute_process(COMMAND ${args}
                  OUTPUT_FILE [==[${stdout}]==]
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command exited with ${rc}:\n${err}")
endif()

set(update "$ENV{DNSTIME_UPDATE_GOLDEN}")
if(update AND NOT update STREQUAL "0")
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${ACTUAL}" "${GOLDEN}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot rewrite ${GOLDEN}")
  endif()
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "no golden ${GOLDEN}; DNSTIME_UPDATE_GOLDEN=1 "
                      "creates it from ${ACTUAL}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}"
                        "${ACTUAL}"
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  return()
endif()

# Locate the first differing byte by bisecting on equal prefixes, then
# print the line holding it from both files (clipped around that byte:
# reports are one long JSON line).
file(READ "${GOLDEN}" want)
file(READ "${ACTUAL}" got)
string(LENGTH "${want}" len_want)
string(LENGTH "${got}" len_got)
set(lo 0)
set(hi ${len_want})
if(len_got LESS hi)
  set(hi ${len_got})
endif()
while(lo LESS hi)
  math(EXPR mid "(${lo} + ${hi} + 1) / 2")
  string(SUBSTRING "${want}" 0 ${mid} a)
  string(SUBSTRING "${got}" 0 ${mid} b)
  if(a STREQUAL b)
    set(lo ${mid})
  else()
    math(EXPR hi "${mid} - 1")
  endif()
endwhile()
string(SUBSTRING "${want}" 0 ${lo} prefix)
string(REGEX MATCHALL "\n" newlines "${prefix}")
list(LENGTH newlines line)
math(EXPR line "${line} + 1")
string(FIND "${prefix}" "\n" start REVERSE)
math(EXPR start "${start} + 1")
math(EXPR column "${lo} - ${start}")
if(column GREATER 60)
  math(EXPR start "${lo} - 60")
endif()
foreach(side want got)
  string(SUBSTRING "${${side}}" ${start} 160 text)
  string(FIND "${text}" "\n" eol)
  if(eol GREATER_EQUAL 0)
    string(SUBSTRING "${text}" 0 ${eol} text)
  endif()
  set(${side}_line "${text}")
endforeach()
message(FATAL_ERROR
        "output differs from ${GOLDEN} at line ${line}, byte ${lo}:\n"
        "  golden: ${want_line}\n"
        "  actual: ${got_line}\n"
        "(output kept in ${ACTUAL}; regenerate deliberately with "
        "DNSTIME_UPDATE_GOLDEN=1)")
