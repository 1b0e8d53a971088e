# Runs paraio_lint over the seeded fixtures and passes only on exit code 1
# (findings) with the exact totals below.  Exit 2 (a missing path or an
# internal error) fails, as does any drift in what the fixtures trigger.
#
#   cmake -DLINT=<paraio_lint> -DFIXTURES=<dir> -P fixtures_detect.cmake
#
# Totals are the sums of the exact per-fixture counts in lint_test.cpp:
# errors   = unordered-iter 2+2, wall-clock 2, raw-random 3,
#            coro-lambda-capture 2, swallowed-io-error 3, capture-escape 2,
#            layering 3x2;
# warnings = ptr-key-order 2;
# one suppressed instance per fixture (clean.cc has none).
set(want "22 error(s), 2 warning(s), 11 suppressed")
execute_process(
  COMMAND ${LINT} ${FIXTURES}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE findings
  ERROR_VARIABLE summary)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "paraio_lint exited ${status}, want 1:\n${summary}")
endif()
string(FIND "${summary}" "${want}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "want '${want}', got:\n${summary}${findings}")
endif()
message(STATUS "${summary}")
