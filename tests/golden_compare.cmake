# Runs BIN with ARGS, writes its stdout to OUT, and fails unless OUT is
# byte-identical to GOLDEN. Usage:
#   cmake -DBIN=... -DARGS=... -DGOLDEN=... -DOUT=... -P golden_compare.cmake
foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_compare: -D${var}= is required")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${GOLDEN} want)
  file(READ ${OUT} got)
  message(FATAL_ERROR "${BIN} ${ARGS}: stdout differs from ${GOLDEN}\n"
                      "--- expected ---\n${want}--- got ---\n${got}")
endif()
