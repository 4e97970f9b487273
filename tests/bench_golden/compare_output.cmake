# Run BIN with the arguments in the ARGS list (optional) and compare
# its stdout byte for byte with the EXPECTED file. INPUT (optional)
# names a file fed to BIN's stdin. On a mismatch the actual output is
# left in ACTUAL for diffing.
if(DEFINED INPUT)
    set(input INPUT_FILE ${INPUT})
endif()
execute_process(COMMAND ${BIN} ${ARGS}
                ${input}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${rc}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    message(FATAL_ERROR "stdout of ${BIN} differs from ${EXPECTED}\n"
                        "actual output: ${ACTUAL}\n"
                        "compare with: diff ${EXPECTED} ${ACTUAL}")
endif()
