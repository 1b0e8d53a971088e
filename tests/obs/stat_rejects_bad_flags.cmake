# Runs paraio_stat with malformed numeric flags and passes only when every
# run exits 2 with a message naming the flag.  Each token must be one whole
# number; a non-positive or non-finite sample period is refused too.
#
#   cmake -DSTAT=<paraio_stat> -P stat_rejects_bad_flags.cmake
set(cases
  "--sample-period|abc"
  "--sample-period|1O"
  "--sample-period|0"
  "--sample-period|-1"
  "--sample-period|nan"
  "--nodes|8x"
  "--ions|-4"
  "--top|5.0")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  list(GET args 0 flag)
  execute_process(
    COMMAND ${STAT} ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE report
    ERROR_VARIABLE message)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "paraio_stat ${case} exited ${status}, want 2:\n"
      "${message}${report}")
  endif()
  string(FIND "${message}" "${flag}: expected" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "paraio_stat ${case}: message does not name ${flag}:\n"
      "${message}")
  endif()
endforeach()
