# Run BIN and compare its stdout byte for byte with the EXPECTED file.
# On a mismatch the actual output is left in ACTUAL for diffing.
execute_process(COMMAND ${BIN}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    message(FATAL_ERROR "stdout of ${BIN} differs from ${EXPECTED}\n"
                        "actual output: ${ACTUAL}\n"
                        "compare with: diff ${EXPECTED} ${ACTUAL}")
endif()
