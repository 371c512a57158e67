# Command-line tools.  Included from the top level so the binaries land
# in ${CMAKE_BINARY_DIR}/tools without CMake clutter.

add_executable(edgereason_cli ${CMAKE_CURRENT_LIST_DIR}/edgereason_cli.cc)
target_link_libraries(edgereason_cli PRIVATE edgereason)
set_target_properties(edgereason_cli PROPERTIES
    OUTPUT_NAME edgereason
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/tools)

# Flag-rejection cases: each bad value must exit through usage() with a
# message naming the flag, before any evaluation or thread pool starts.
if(BUILD_TESTING)
    function(edgereason_cli_rejects name regex)
        add_test(NAME cli_rejects_${name} COMMAND edgereason_cli ${ARGN})
        set_tests_properties(cli_rejects_${name} PROPERTIES
            PASS_REGULAR_EXPRESSION "${regex}" LABELS cli)
    endfunction()

    edgereason_cli_rejects(threads_before_command
        "--threads must be in \\[0, 1024\\], got 4294967297"
        --threads 4294967297 sweep --questions 2)
    edgereason_cli_rejects(threads_after_command
        "--threads must be in \\[0, 1024\\], got 4294967297"
        sweep --threads 4294967297 --questions 2)
    edgereason_cli_rejects(evaluate_negative_questions
        "--questions must be in \\[0, 1000000\\], got -1"
        evaluate --model DSR1-Qwen-1.5B --questions -1)
    edgereason_cli_rejects(sweep_negative_questions
        "--questions must be in \\[0, 1000000\\], got -1"
        sweep --questions -1)
    edgereason_cli_rejects(int_trailing_characters
        "invalid number for --parallel: 2x"
        evaluate --parallel 2x --questions 5)
    edgereason_cli_rejects(double_trailing_characters
        "invalid number for --budget: 5x"
        plan --budget 5x)
    edgereason_cli_rejects(plan_negative_prompt_tokens
        "--prompt-tokens must be in \\[0, 16777215\\], got -50"
        plan --budget 5 --prompt-tokens -50)
    edgereason_cli_rejects(plan_nan_budget
        "--budget must be a finite number of seconds > 0, got nan"
        plan --budget nan)
    edgereason_cli_rejects(plan_inf_budget
        "--budget must be a finite number of seconds > 0, got inf"
        plan --budget inf)
    edgereason_cli_rejects(plan_zero_budget
        "--budget must be a finite number of seconds > 0, got 0"
        plan --budget 0)
    edgereason_cli_rejects(session_qps_zero
        "--session-qps must be positive"
        serve --sessions 3 --session-qps 0)
    edgereason_cli_rejects(turn_gap_zero
        "--turn-gap must be positive"
        serve --sessions 3 --turn-gap 0)
    edgereason_cli_rejects(policy_trailing_characters
        "--policy 12xT: the token budget must be a whole number >= 1"
        evaluate --policy 12xT --questions 5)
    edgereason_cli_rejects(policy_negative_budget
        "--policy -5T: the token budget must be a whole number >= 1"
        evaluate --policy -5T --questions 5)
    edgereason_cli_rejects(policy_not_a_number
        "--policy xT: the token budget must be a whole number >= 1"
        evaluate --policy xT --questions 5)

    # Replay reports a journal it cannot replay by name, without the
    # source line of the fatal() that refused it.
    add_test(NAME cli_replay_setup COMMAND edgereason_cli serve --fleet 3
        --requests 200 --qps 2 --node-crash-rate 20 --node-reboot 30
        --fleet-journals cli-replay-journals)
    add_test(NAME cli_replay_names_no_source_line
        COMMAND edgereason_cli replay cli-replay-journals)
    set_tests_properties(cli_replay_setup PROPERTIES
        FIXTURES_SETUP cli_replay LABELS cli)
    set_tests_properties(cli_replay_names_no_source_line PROPERTIES
        FIXTURES_REQUIRED cli_replay LABELS cli
        PASS_REGULAR_EXPRESSION "not replayable \\(journal "
        FAIL_REGULAR_EXPRESSION "\\.cc:[0-9]")

    # Errors that reach main() are printed without the fatal()'s
    # source path and line either.
    add_test(NAME cli_error_names_no_source_line
        COMMAND edgereason_cli replay cli-no-such-journal.bin)
    set_tests_properties(cli_error_names_no_source_line PROPERTIES
        LABELS cli
        PASS_REGULAR_EXPRESSION "cannot open journal file"
        FAIL_REGULAR_EXPRESSION "\\.cc:[0-9]")
endif()
