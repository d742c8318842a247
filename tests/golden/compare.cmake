# Runs one seda_cli command and byte-compares its stdout with a golden file.
#
#   cmake -DCLI=<seda_cli> "-DARGS=<command line>" -DGOLDEN=<file> -DOUT=<file>
#         -P compare.cmake
#
# On a mismatch the fresh output stays in OUT, so `diff GOLDEN OUT` shows
# what moved.  A change that alters an output on purpose regenerates the
# golden file in the same commit.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args} OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "seda_cli ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of `seda_cli ${ARGS}` differs from ${GOLDEN}; see ${OUT}")
endif()
