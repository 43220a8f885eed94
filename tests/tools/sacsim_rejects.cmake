# Runs `sacsim FLAG VALUE` and passes only when sacsim exits non-zero
# and its output names FLAG:
#
#   cmake -DSACSIM=path/to/sacsim -DFLAG=--sectors -DVALUE=x \
#         -P sacsim_rejects.cmake
execute_process(COMMAND ${SACSIM} ${FLAG} ${VALUE}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if (code EQUAL 0)
    message(FATAL_ERROR "sacsim ${FLAG} ${VALUE} exited 0:\n${out}${err}")
endif()
string(FIND "${out}${err}" "${FLAG}" at)
if (at EQUAL -1)
    message(FATAL_ERROR "sacsim ${FLAG} ${VALUE} exited ${code} "
                        "without naming ${FLAG}:\n${out}${err}")
endif()
