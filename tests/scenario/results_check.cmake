# Fails when the committed report files and the scenario specs drift
# apart: every text report under results/ must be a FIG_<name>.txt with
# the spec that produces it, examples/scenarios/<name>.e2es, and every
# `figure` or `breakdown` spec must have its results/FIG_<name>.txt. A
# spec owns a report when it is such a spec or its FIG file is committed;
# tools/run_benches.sh --figures regenerates exactly that set. Likewise
# every results/BENCH_<name>.json but BENCH_admission.json (bench_admission
# writes it) must be timed from examples/scenarios/<name>.e2es, which is
# what tools/run_benches.sh runs for it. A hand-captured report with no
# spec behind it cannot come back unnoticed.
#
# Usage: cmake -DREPO_DIR=<repo> -P results_check.cmake
if(NOT IS_DIRECTORY "${REPO_DIR}/results" OR
   NOT IS_DIRECTORY "${REPO_DIR}/examples/scenarios")
  message(FATAL_ERROR "REPO_DIR '${REPO_DIR}' has no results/ or "
                      "examples/scenarios/ directory")
endif()

set(problems "")
file(GLOB results "${REPO_DIR}/results/*.txt")
foreach(result IN LISTS results)
  get_filename_component(file_name "${result}" NAME)
  if(NOT file_name MATCHES "^FIG_(.+)\\.txt$")
    string(APPEND problems "\n  results/${file_name} is not a FIG_<spec>.txt report")
  elseif(NOT EXISTS "${REPO_DIR}/examples/scenarios/${CMAKE_MATCH_1}.e2es")
    string(APPEND problems "\n  results/${file_name} has no "
                           "examples/scenarios/${CMAKE_MATCH_1}.e2es")
  endif()
endforeach()

file(GLOB benches "${REPO_DIR}/results/BENCH_*.json")
foreach(bench IN LISTS benches)
  get_filename_component(file_name "${bench}" NAME)
  string(REGEX REPLACE "^BENCH_(.+)\\.json$" "\\1" name "${file_name}")
  if(NOT name STREQUAL "admission" AND
     NOT EXISTS "${REPO_DIR}/examples/scenarios/${name}.e2es")
    string(APPEND problems "\n  results/${file_name} has no "
                           "examples/scenarios/${name}.e2es")
  endif()
endforeach()

file(GLOB specs "${REPO_DIR}/examples/scenarios/*.e2es")
foreach(spec IN LISTS specs)
  get_filename_component(name "${spec}" NAME_WE)
  file(STRINGS "${spec}" kind_line REGEX "^scenario +(figure|breakdown)( |$)")
  if(kind_line AND NOT EXISTS "${REPO_DIR}/results/FIG_${name}.txt")
    string(APPEND problems
           "\n  examples/scenarios/${name}.e2es has no results/FIG_${name}.txt")
  endif()
endforeach()

if(problems)
  message(FATAL_ERROR "results/ and examples/scenarios/ disagree:${problems}")
endif()
list(LENGTH results checked)
list(LENGTH benches timed)
message(STATUS "results ok (${checked} FIG_<spec>.txt reports and ${timed} "
               "BENCH_*.json timings, each with its spec)")
