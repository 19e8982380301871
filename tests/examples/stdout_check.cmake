# Runs one example binary and fails unless it exits 0 and its stdout
# equals the committed golden byte for byte. Regenerate a golden after
# an intended output change with `./build/examples/<name> >
# tests/examples/<name>.txt`.
#
# Usage: cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -P stdout_check.cmake
if(NOT EXISTS "${EXAMPLE}" OR NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "need -DEXAMPLE=<binary> and -DGOLDEN=<file> "
                      "(got '${EXAMPLE}', '${GOLDEN}')")
endif()

execute_process(COMMAND "${EXAMPLE}"
                OUTPUT_VARIABLE got
                ERROR_VARIABLE err
                RESULT_VARIABLE code)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${EXAMPLE} exited with '${code}':\n${err}")
endif()

file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${EXAMPLE} stdout differs from ${GOLDEN}; got:\n${got}")
endif()
message(STATUS "${EXAMPLE} matches ${GOLDEN}")
