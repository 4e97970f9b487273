# Run BIN with the arguments in the ARGS list and require a usage
# error: exit status 2 and stderr matching the regular expression
# ERROR.
execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${rc}, "
                        "expected 2; stderr:\n${err}")
endif()
if(NOT err MATCHES "${ERROR}")
    message(FATAL_ERROR "stderr of ${BIN} ${ARGS} does not match "
                        "'${ERROR}':\n${err}")
endif()
