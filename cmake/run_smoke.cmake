# Runs an example binary and checks exit status plus a key output line.
# Usage: cmake -DEXE=<path> [-DARGS=<a;b;...>] -DPASS_REGEX=<regex>
#              [-DFAIL_REGEX=<regex>] [-DGOLDEN=<file>]
#              [-DEXPECT_RC=<status>] [-DERR_REGEX=<regex>]
#              [-DRUN_TIMEOUT=<seconds>] -P run_smoke.cmake
# FAIL_REGEX fails the test when it matches anywhere in stdout (e.g.
# a figure bench printing a VIOLATED shape-check line).
# EXPECT_RC is the exit status the run must end with (default 0), and
# ERR_REGEX must match its stderr (e.g. a usage line for a bad argument).
# RUN_TIMEOUT kills the run, and fails the test, after that many seconds.
# GOLDEN fails the test unless stdout matches the file byte for byte
# (pins bit-identical output, e.g. the default placement policy).
if(NOT DEFINED EXE)
    message(FATAL_ERROR "run_smoke.cmake: EXE not set")
endif()
set(cmd ${EXE})
if(DEFINED ARGS AND NOT ARGS STREQUAL "")
    list(APPEND cmd ${ARGS})
endif()
set(timeout_opt)
if(DEFINED RUN_TIMEOUT)
    set(timeout_opt TIMEOUT ${RUN_TIMEOUT})
endif()
execute_process(COMMAND ${cmd}
                ${timeout_opt}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message(STATUS "---- stdout ----\n${out}")
if(NOT err STREQUAL "")
    message(STATUS "---- stderr ----\n${err}")
endif()
if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 0)
endif()
if(NOT rc EQUAL EXPECT_RC)
    message(FATAL_ERROR "smoke: ${EXE} ended with '${rc}', expected status ${EXPECT_RC}")
endif()
if(DEFINED ERR_REGEX AND NOT err MATCHES "${ERR_REGEX}")
    message(FATAL_ERROR "smoke: stderr of ${EXE} does not match '${ERR_REGEX}'")
endif()
if(DEFINED PASS_REGEX AND NOT out MATCHES "${PASS_REGEX}")
    message(FATAL_ERROR "smoke: output of ${EXE} does not match '${PASS_REGEX}'")
endif()
if(DEFINED FAIL_REGEX AND out MATCHES "${FAIL_REGEX}")
    message(FATAL_ERROR "smoke: output of ${EXE} matches fail pattern '${FAIL_REGEX}'")
endif()
if(DEFINED GOLDEN)
    file(READ "${GOLDEN}" want)
    if(NOT out STREQUAL want)
        message(FATAL_ERROR "smoke: output of ${EXE} differs from golden ${GOLDEN}")
    endif()
endif()
