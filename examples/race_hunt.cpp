// Race hunting: the paper's closing implication in action.
//
// The trace has a write protected by a semaphore handshake that LOOKS
// correct in the observed execution — the consumer's P happened to take
// the producer's token.  But a second token from an unrelated process
// means another feasible execution leaves the two writes unsynchronized.
//
//   * the observed-order detector (vector clocks, one execution) misses
//     the race;
//   * the exhaustive detector (could-have-been-concurrent over all
//     feasible executions) finds it, with a witness schedule;
//   * the guaranteed-orderings detector (HMW safe orderings) also
//     reports it, conservatively.
//
// "Exhaustively detecting all data races potentially exhibited by a
// given program execution is an intractable problem" — which is why the
// exhaustive detector carries a budget.
#include <cstdio>
#include <memory>

#include "core/report.hpp"
#include "ordering/witness.hpp"
#include "service/session.hpp"
#include "trace/builder.hpp"

int main() {
  using namespace evord;

  TraceBuilder b;
  const ObjectId s = b.semaphore("tokens");
  const VarId x = b.variable("x");
  const ProcId worker = b.add_process();
  const ProcId helper = b.add_process();

  const EventId w0 = b.compute(b.root(), "x := 1", {}, {x});
  b.sem_v(b.root(), s);
  b.sem_p(worker, s);
  const EventId w1 = b.compute(worker, "x := 2", {}, {x});
  b.sem_v(helper, s, "stray token");
  service::AnalysisSession session(std::make_shared<const Trace>(b.build()));
  const Trace& trace = session.trace();

  std::printf("%s\n", format_event_table(trace).c_str());

  for (RaceDetector detector : {RaceDetector::kObserved,
                                RaceDetector::kGuaranteed,
                                RaceDetector::kExact}) {
    std::printf("%s", session.races(detector)->summary(trace).c_str());
  }

  // Materialize the feasible execution that exposes the race.
  ExactOptions race_options;
  race_options.causal_data_edges = false;
  if (auto witness =
          witness_could_be_concurrent(trace, w0, w1, race_options)) {
    std::printf("\nwitness execution exposing the race:");
    for (EventId e : *witness) {
      std::printf(" [%s]", describe(trace.event(e)).c_str());
    }
    std::printf("\n(the worker's P pairs with the helper's stray token, so "
                "no synchronization orders the writes)\n");
  }
  return 0;
}
