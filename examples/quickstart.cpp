// Quickstart: build a small program execution, compute all six ordering
// relations of Netzer & Miller's Table 1, and print a report.
//
//   $ ./quickstart
//
// The trace is a producer/consumer handshake with one unsynchronized
// bystander, so it exhibits every flavor of ordering: guaranteed
// (must-have), schedule-dependent (could-have) and genuinely concurrent.
#include <cstdio>
#include <memory>

#include "core/report.hpp"
#include "ordering/witness.hpp"
#include "service/session.hpp"
#include "trace/builder.hpp"

int main() {
  using namespace evord;

  // ----- build the observed execution --------------------------------
  TraceBuilder b;
  const ObjectId items = b.semaphore("items");
  const VarId buffer = b.variable("buffer");
  const ProcId consumer = b.add_process();
  const ProcId bystander = b.add_process();

  const EventId produce =
      b.compute(b.root(), "produce", /*reads=*/{}, /*writes=*/{buffer});
  b.sem_v(b.root(), items);
  b.sem_p(consumer, items);
  const EventId consume =
      b.compute(consumer, "consume", /*reads=*/{buffer}, /*writes=*/{});
  const EventId idle = b.compute(bystander, "idle");

  // ----- analyze -------------------------------------------------------
  // The session computes each relation sweep once and caches it (causal
  // semantics unless a query says otherwise).
  service::AnalysisSession session(std::make_shared<const Trace>(b.build()));
  const Trace& trace = session.trace();
  const auto relations = session.relations(Semantics::kCausal);

  std::printf("%s%s\n", format_event_table(trace).c_str(),
              summarize_relations(trace, *relations).c_str());

  const auto answer = [&](RelationKind kind, EventId x, EventId y) {
    return session.pair_query({kind, x, y, Semantics::kCausal}) ? "yes"
                                                                 : "no";
  };
  std::printf("produce MHB consume : %s\n",
              answer(RelationKind::kMHB, produce, consume));
  std::printf("consume CHB produce : %s\n",
              answer(RelationKind::kCHB, consume, produce));
  std::printf("idle CCW produce    : %s\n",
              answer(RelationKind::kCCW, idle, produce));
  std::printf("idle MCW produce    : %s\n",
              answer(RelationKind::kMCW, idle, produce));

  // A witness schedule showing the bystander running before everything.
  if (auto witness = witness_could_happen_before(
          trace, idle, produce, Semantics::kInterleaving,
          session.options())) {
    std::printf("\nwitness schedule with 'idle' first:");
    for (EventId e : *witness) std::printf(" e%u", e);
    std::printf("\n");
  }

  // The must-have-happened-before relation as a Graphviz graph.
  std::printf("\n%s\n",
              relation_dot(trace, (*relations)[RelationKind::kMHB],
                           "must_have_happened_before")
                  .c_str());
  return 0;
}
