# Runs every bench_e2e workload once in smoke mode and fails on the first
# non-zero exit (a wrong answer, a failed op, or a broken run).
#
#   cmake -DBENCH=<path to bench_e2e_check> -P bench_e2e_smoke.cmake
foreach(workload warm_query cold_exact deadline_anytime churn_mix)
  execute_process(
    COMMAND ${BENCH} --workload ${workload} --seed 1 --seconds 1 --trace 0
            --smoke
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_e2e ${workload} exited with ${status}")
  endif()
endforeach()
