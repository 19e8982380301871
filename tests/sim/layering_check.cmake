# Fails when a file under src/sim includes a header from a layer built on
# top of the engine (core/, experiments/, scenario/). The engine reaches
# protocols only through sim/protocol.h's SyncProtocol interface, so the
# sim library must not depend on any protocol or driver library.
#
# Usage: cmake -DSIM_DIR=<repo>/src/sim -P layering_check.cmake
if(NOT IS_DIRECTORY "${SIM_DIR}")
  message(FATAL_ERROR "SIM_DIR '${SIM_DIR}' is not a directory")
endif()

file(GLOB_RECURSE sim_sources "${SIM_DIR}/*.h" "${SIM_DIR}/*.cpp")
set(offenders "")
foreach(source IN LISTS sim_sources)
  file(STRINGS "${source}" includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*[<\"](core|experiments|scenario)/")
  foreach(line IN LISTS includes)
    file(RELATIVE_PATH relative "${SIM_DIR}" "${source}")
    string(STRIP "${line}" line)
    string(APPEND offenders "\n  src/sim/${relative}: ${line}")
  endforeach()
endforeach()

if(offenders)
  message(FATAL_ERROR "src/sim must not include core/, experiments/ or "
                      "scenario/ headers:${offenders}")
endif()
list(LENGTH sim_sources checked)
message(STATUS "src/sim layering ok (${checked} files)")
