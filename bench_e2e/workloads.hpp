// The four workloads.  Each loads a different layer and barely touches
// the others; BENCHMARK.md records why each was chosen.
#pragma once

#include "harness.hpp"

namespace evord::bench_e2e {

/// Warm cache hits over two connections: the daemon front end.
RunResult run_warm_query(const Config& cfg);
/// Never-seen traces fully analysed over one connection: the exact
/// search (ordering / search / feasible / race).
RunResult run_cold_exact(const Config& cfg);
/// 50 ms-deadline anytime queries on traces past the exact wall: the
/// ladder, the polynomial bounds and the SAT oracle.
RunResult run_deadline_anytime(const Config& cfg);
/// Zipf-popular traces, re-registrations and reads over a cache that
/// holds a quarter of the working set: the service layer under churn.
RunResult run_churn_mix(const Config& cfg);

}  // namespace evord::bench_e2e
