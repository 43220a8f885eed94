# Runs `TOOL ARGS` (the built sacsim, sacsimd or figures) and passes
# only when it exits with CODE (any non-zero code when CODE is empty)
# and its stdout+stderr contains every |-separated substring of
# EXPECT, in that order:
#
#   cmake -DTOOL=path/to/sacsim "-DARGS=--sectors x" -DCODE= \
#         -DEXPECT=--sectors -P sacsim_cli.cmake
get_filename_component(tool "${TOOL}" NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
if (CODE STREQUAL "")
    if (code EQUAL 0)
        message(FATAL_ERROR "${tool} ${ARGS} exited 0:\n${output}")
    endif()
elseif (NOT code EQUAL CODE)
    message(FATAL_ERROR "${tool} ${ARGS} exited ${code}, not ${CODE}:\n"
                        "${output}")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
set(rest "${output}")
foreach(text IN LISTS expected)
    string(FIND "${rest}" "${text}" at)
    if (at EQUAL -1)
        message(FATAL_ERROR "${tool} ${ARGS} exited ${code}; expected "
                            "'${text}' (in the order '${EXPECT}'):\n"
                            "${output}")
    endif()
    string(LENGTH "${text}" length)
    math(EXPR at "${at} + ${length}")
    string(SUBSTRING "${rest}" ${at} -1 rest)
endforeach()
