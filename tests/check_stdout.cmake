# Runs one paper-figure program and compares its stdout byte for byte with a
# golden file. Fails on a nonzero exit code or any difference.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> [-DMASK=<name>] -P check_stdout.cmake
#
# MASK names the one filter applied before the compare; each masks only what
# differs between two runs of one build:
#   runner_wall  -- bench_fig13_16's "(N threads, X s)" runner line
#   us_per_call  -- bench_ablation_transform_method's two us/call columns
# With RESLOC_REGEN_GOLDEN=1 in the environment the masked output is written
# to GOLDEN instead of compared.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()

if(MASK STREQUAL "runner_wall")
  string(REGEX REPLACE "\\([0-9]+ threads, [0-9.]+ s\\)" "(N threads, X s)" actual "${actual}")
elseif(MASK STREQUAL "us_per_call")
  # The table's last two columns, trailing padding included.
  string(REGEX REPLACE "[0-9.]+ +[0-9.]+ *\n" "<us> <us>\n" actual "${actual}")
elseif(NOT MASK STREQUAL "")
  message(FATAL_ERROR "unknown MASK '${MASK}'")
endif()

if("$ENV{RESLOC_REGEN_GOLDEN}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual_file}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${actual_file}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN} (actual: ${actual_file}); "
                      "regenerate with RESLOC_REGEN_GOLDEN=1 only for a declared change")
endif()
