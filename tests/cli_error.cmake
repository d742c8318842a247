# Runs one seda_cli command that must be refused: exit code 1, STDERR (a
# literal substring) on stderr, and nothing on stdout.
#
#   cmake -DCLI=<seda_cli> "-DARGS=<command line>" "-DSTDERR=<text>"
#         -P cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "seda_cli ${ARGS} exited with ${rc}, want 1")
endif()
string(FIND "${err}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of `seda_cli ${ARGS}` lacks \"${STDERR}\":\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "seda_cli ${ARGS} wrote to stdout:\n${out}")
endif()
