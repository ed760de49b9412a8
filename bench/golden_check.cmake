# Runs one bench binary and fails unless it exits 0 and its stdout matches
# the committed golden file byte for byte.
#   cmake -DBIN=<binary> -DGOLDEN=<golden.txt> -DOUT=<fresh.txt> -P golden_check.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BIN} differs from the golden file:\n"
                      "  diff ${GOLDEN} ${OUT}")
endif()
