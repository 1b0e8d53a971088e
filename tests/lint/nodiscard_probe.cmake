# Compiles nodiscard_probe.cc with -fsyntax-only and passes only if every
# line marked `// probe` draws exactly one -Wunused-result warning and the
# compiler reports nothing else.  Run as:
#
#   cmake -DCXX=<compiler> -DSRC=<repo>/src -DPROBE=<probe.cc> -P nodiscard_probe.cmake
execute_process(
  COMMAND ${CXX} -std=c++20 -fsyntax-only -Wall -Wextra
          -fdiagnostics-color=never -I ${SRC} ${PROBE}
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "probe did not compile (exit ${status}):\n${diagnostics}")
endif()

file(STRINGS ${PROBE} source)
set(expected "")
set(lineno 0)
foreach(line IN LISTS source)
  math(EXPR lineno "${lineno} + 1")
  if(line MATCHES "// probe$")
    list(APPEND expected ${lineno})
  endif()
endforeach()

set(seen "")
string(REPLACE "\n" ";" lines "${diagnostics}")
foreach(line IN LISTS lines)
  if(NOT line MATCHES ": (warning|error): ")
    continue()  # notes, include context, source snippets
  endif()
  if(line MATCHES "nodiscard_probe\\.cc:([0-9]+):[0-9]+: warning: .*\\[-Wunused-result\\]$")
    list(APPEND seen ${CMAKE_MATCH_1})
  else()
    message(FATAL_ERROR "unexpected diagnostic: ${line}")
  endif()
endforeach()

list(LENGTH expected n_expected)
if(n_expected EQUAL 0)
  message(FATAL_ERROR "no `// probe` lines found in ${PROBE}")
endif()
if(NOT seen STREQUAL expected)
  message(FATAL_ERROR "-Wunused-result lines ${seen} != probe lines ${expected}; "
                      "a [[nodiscard]] was removed?\n${diagnostics}")
endif()
message(STATUS "${n_expected} discarded awaitables/tasks rejected by the compiler")
