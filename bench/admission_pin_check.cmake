# Recomputes results/BENCH_admission.json's hashes: runs bench_admission
# at default sizes on one thread and fails unless it exits 0 and every
# variant result_hash and every ladder schedule_hash it writes equals
# the committed file's. The committed file is only read.
#
# Usage: cmake -DBENCH=<bench_admission> -DCOMMITTED=<json> -DOUT=<json>
#              -P admission_pin_check.cmake
set(ENV{E2E_BENCH_THREADS} 1)
execute_process(COMMAND "${BENCH}" "--json=${OUT}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_admission exited ${rc}:\n${output}")
endif()

# The hashes of one kind ("result_hash" or "schedule_hash") in `file`,
# deduplicated, in first-occurrence order.
function(hashes_of file key out_var)
  file(READ "${file}" json)
  string(REGEX MATCHALL "\"${key}\": \"0x[0-9a-f]+\"" found "${json}")
  list(REMOVE_DUPLICATES found)
  set(${out_var} "${found}" PARENT_SCOPE)
endfunction()

foreach(key result_hash schedule_hash)
  hashes_of("${COMMITTED}" ${key} committed)
  hashes_of("${OUT}" ${key} recomputed)
  list(LENGTH committed count)
  if(count EQUAL 0 OR NOT committed STREQUAL recomputed)
    message(FATAL_ERROR "${key}: committed ${committed}, recomputed ${recomputed}")
  endif()
  message(STATUS "${key}: ${recomputed}")
endforeach()
