# Runs bench_por and bench_enumerate with --benchmark_filter=NONE in a
# fresh directory and compares the deterministic counts they write
# against the kept baselines with diff_counts.py; fails on any
# difference.
#
#   cmake -DPOR=<bench_por> -DENUMERATE=<bench_enumerate>
#         -DPYTHON=<python3> -DSOURCE=<repo root> -DWORK=<scratch dir>
#         -P perf_counts.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
foreach(bench ${POR} ${ENUMERATE})
  execute_process(
    COMMAND ${bench} --benchmark_filter=NONE
    WORKING_DIRECTORY ${WORK}
    OUTPUT_QUIET
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${status}")
  endif()
endforeach()
foreach(file BENCH_por.json BENCH_search.json)
  execute_process(
    COMMAND ${PYTHON} ${SOURCE}/bench/diff_counts.py
            ${SOURCE}/bench/baseline/${file} ${WORK}/${file}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${file}: counts differ from bench/baseline/${file}")
  endif()
endforeach()
