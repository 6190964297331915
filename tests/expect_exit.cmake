# Runs BIN with ARGS and fails unless it exits with code RC and its
# stderr matches every regex in ERR (a ;-list). Usage:
#   cmake -DBIN=... -DARGS=... -DRC=64 "-DERR=re1;re2" -P expect_exit.cmake
foreach(var BIN RC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit: -D${var}= is required")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}, expected ${RC}:\n${err}")
endif()
foreach(re IN LISTS ERR)
  if(NOT err MATCHES "${re}")
    message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${re}':\n"
                        "${err}")
  endif()
endforeach()
