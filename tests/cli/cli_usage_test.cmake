# powerlens_cli numeric arguments: every malformed value is a usage error
# (exit 2) before any work starts, and a well-formed command still runs.
# Run as: cmake -DCLI=<path to powerlens_cli> -P cli_usage_test.cmake
set(malformed
  "serve tx2 - 100 maxn -1"
  "serve tx2 - -1 maxn"
  "serve tx2 - 10x maxn"
  "serve tx2 - 10 maxn 257"
  "serve tx2 - 10 maxn 0"
  "serve tx2 - 10 maxn 2 -3"
  "serve tx2 - 10 maxn 2 nan"
  "serve tx2 - 99999999999999999999999 maxn"
  "serve tx2 - 10 maxn --plan-cache-capacity -2"
  "serve tx2 - 10 maxn --adapt-epoch abc"
  "run tx2 - alexnet 0"
  "export-graph alexnet out.plbin 8.5")
foreach(args IN LISTS malformed)
  separate_arguments(argv UNIX_COMMAND "${args}")
  execute_process(COMMAND "${CLI}" ${argv} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'powerlens_cli ${args}' exited ${rc}, expected 2")
  endif()
endforeach()

execute_process(COMMAND "${CLI}" serve tx2 - 2 maxn 1 0 RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'powerlens_cli serve tx2 - 2 maxn 1 0' exited ${rc}")
endif()
