// The front door: AnalysisSession plus the free functions that take its
// trace() and options(), and the text reports.  This TU includes the
// umbrella header, so every build compiles it.
#include <gtest/gtest.h>

#include <memory>

#include "evord.hpp"
#include "helpers.hpp"

namespace evord {
namespace {

using service::AnalysisSession;

Trace quickstart_trace() {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  const VarId x = b.variable("x");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w", {}, {x});  // e0
  b.sem_v(b.root(), s);               // e1
  b.sem_p(p1, s);                     // e2
  b.compute(p1, "r", {x}, {});        // e3
  return b.build();
}

AnalysisSession make_session(Trace trace, ExactOptions options = {}) {
  return AnalysisSession(std::make_shared<const Trace>(std::move(trace)),
                         options);
}

/// The causal relations report: the event table, then the summary.
std::string report(AnalysisSession& session) {
  return format_event_table(session.trace()) +
         summarize_relations(session.trace(), *session.relations());
}

TEST(SessionFrontDoor, RejectsInvalidTraces) {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  b.sem_p(b.root(), s);
  EXPECT_THROW(make_session(b.build_unchecked()), CheckError);
}

TEST(SessionFrontDoor, PairQueriesMatchExactSolver) {
  AnalysisSession a = make_session(quickstart_trace());
  const auto holds = [&](RelationKind kind, EventId x, EventId y) {
    return a.pair_query({kind, x, y, Semantics::kCausal});
  };
  EXPECT_TRUE(holds(RelationKind::kMHB, 0, 3));
  EXPECT_TRUE(holds(RelationKind::kCHB, 0, 3));
  EXPECT_FALSE(holds(RelationKind::kCHB, 3, 0));
  EXPECT_FALSE(holds(RelationKind::kCCW, 0, 3));
  EXPECT_TRUE(holds(RelationKind::kMOW, 0, 3));
  EXPECT_TRUE(holds(RelationKind::kCOW, 0, 3));
  EXPECT_FALSE(holds(RelationKind::kMCW, 0, 3));
}

TEST(SessionFrontDoor, CachesPerSemantics) {
  AnalysisSession a = make_session(quickstart_trace());
  const auto r1 = a.relations(Semantics::kCausal);
  const auto r2 = a.relations(Semantics::kCausal);
  EXPECT_EQ(r1.get(), r2.get());  // same object: cached
  const auto r3 = a.relations(Semantics::kInterleaving);
  EXPECT_EQ(r3->semantics, Semantics::kInterleaving);
}

TEST(SessionFrontDoor, WitnessesRoundTrip) {
  TraceBuilder b;
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "a");
  b.compute(p1, "b");
  AnalysisSession a = make_session(b.build());
  EXPECT_TRUE(
      witness_could_be_concurrent(a.trace(), 0, 1, a.options()).has_value());
  EXPECT_TRUE(witness_could_happen_before(a.trace(), 1, 0,
                                          Semantics::kInterleaving,
                                          a.options())
                  .has_value());
  EXPECT_FALSE(witness_could_happen_before(a.trace(), 1, 0,
                                           Semantics::kCausal, a.options())
                   .has_value());
}

TEST(SessionFrontDoor, BaselinesAccessible) {
  const Trace t = quickstart_trace();
  EXPECT_TRUE(compute_vector_clocks(t).happened_before.holds(0, 3));
  EXPECT_TRUE(compute_hmw(t).safe_happened_before.holds(1, 2));
}

TEST(SessionFrontDoor, EgpOnEventTrace) {
  TraceBuilder b;
  const ObjectId e = b.event_var("e");
  const ProcId p1 = b.add_process();
  b.post(b.root(), e);
  b.wait(p1, e);
  EXPECT_TRUE(compute_egp(b.build()).guaranteed.holds(0, 1));
}

TEST(SessionFrontDoor, CombinedAndDeadlocks) {
  AnalysisSession a = make_session(quickstart_trace());
  EXPECT_TRUE(compute_combined(a.trace()).guaranteed.holds(0, 3));
  const auto deadlocks = a.deadlocks();
  EXPECT_FALSE(deadlocks->can_deadlock);
  EXPECT_EQ(a.deadlocks().get(), deadlocks.get());  // cached
}

TEST(SessionFrontDoor, CoexistenceFromTheSweep) {
  ScheduleSpaceOptions options;
  options.build_coexist = true;
  TraceBuilder b;
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "x");
  b.compute(p1, "y");
  EXPECT_TRUE(compute_can_precede(b.build(), options).can_coexist[0].test(1));
  EXPECT_FALSE(
      compute_can_precede(quickstart_trace(), options).can_coexist[0].test(3));
}

TEST(SessionFrontDoor, RacesDelegate) {
  AnalysisSession a = make_session(quickstart_trace());
  EXPECT_TRUE(a.races(RaceDetector::kExact)->races.empty());
  EXPECT_TRUE(a.races(RaceDetector::kObserved)->races.empty());
}

TEST(SessionFrontDoor, ReportMentionsEventsAndRelations) {
  AnalysisSession a = make_session(quickstart_trace());
  const std::string text = report(a);
  EXPECT_NE(text.find("MHB"), std::string::npos);
  EXPECT_NE(text.find("semantics=causal"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
}

// ------------------------------------------------------------------ report

TEST(Report, EventTableListsAllEvents) {
  const Trace t = quickstart_trace();
  const std::string table = format_event_table(t);
  EXPECT_NE(table.find("e0"), std::string::npos);
  EXPECT_NE(table.find("e3"), std::string::npos);
  EXPECT_NE(table.find("w:x"), std::string::npos);
  EXPECT_NE(table.find("r:x"), std::string::npos);
}

TEST(Report, RelationGridShape) {
  RelationMatrix m(3);
  m.set(0, 2);
  const std::string grid = format_relation_grid(m, "test");
  EXPECT_NE(grid.find("test (1 pairs)"), std::string::npos);
  EXPECT_NE(grid.find("..X"), std::string::npos);
}

TEST(Report, SummaryCountsPairs) {
  AnalysisSession a = make_session(quickstart_trace());
  const std::string s =
      summarize_relations(a.trace(), *a.relations(Semantics::kCausal));
  EXPECT_NE(s.find("MHB"), std::string::npos);
  EXPECT_NE(s.find("causal classes"), std::string::npos);
}

TEST(Report, RelationDotIsWellFormedAndReduced) {
  AnalysisSession a = make_session(quickstart_trace());
  const std::string dot = relation_dot(
      a.trace(), (*a.relations(Semantics::kCausal))[RelationKind::kMHB],
      "mhb");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  // Transitive reduction of the 4-chain has exactly 3 edges.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 3u);
}

TEST(Report, TraceDotMarksDependences) {
  const std::string dot = trace_dot(quickstart_trace());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);  // the D edge
}

TEST(Report, SummaryWarnsOnTruncation) {
  Rng rng(81);
  evord::testing::RandomTraceConfig config;
  config.num_events = 14;
  const Trace t = evord::testing::random_trace(config, rng);
  ExactOptions options;
  options.max_schedules = 1;
  AnalysisSession a = make_session(t, options);
  const std::string s =
      summarize_relations(a.trace(), *a.relations(Semantics::kCausal));
  EXPECT_NE(s.find("WARNING"), std::string::npos);
}

// ----------------------------------------------------- end-to-end flows

TEST(EndToEnd, ParseAnalyzeReport) {
  const Trace t = parse_trace_string(R"(
evord-trace 1
sem ready 0
var data
procs 2
schedule
0 compute label="write data" w=data
0 V ready
1 P ready
1 compute label="read data" r=data
end
)");
  AnalysisSession a = make_session(t);
  EXPECT_TRUE(a.pair_query({RelationKind::kMHB, 0, 3, Semantics::kCausal}));
  EXPECT_TRUE(a.races()->races.empty());
  EXPECT_FALSE(report(a).empty());
}

TEST(EndToEnd, RoundTripPreservesRelations) {
  Rng rng(83);
  evord::testing::RandomTraceConfig config;
  config.num_events = 8;
  const Trace t = evord::testing::random_trace(config, rng);
  const Trace u = parse_trace_string(write_trace(t));
  // The writer renumbers events by observed position.
  const OrderingRelations rt = compute_exact(t, Semantics::kCausal);
  const OrderingRelations ru = compute_exact(u, Semantics::kCausal);
  for (RelationKind k : kAllRelationKinds) {
    for (EventId a = 0; a < t.num_events(); ++a) {
      for (EventId b = 0; b < t.num_events(); ++b) {
        const EventId oa = t.observed_order()[a];
        const EventId ob = t.observed_order()[b];
        EXPECT_EQ(rt.holds(k, oa, ob), ru.holds(k, a, b))
            << to_string(k) << ' ' << a << ',' << b;
      }
    }
  }
}

}  // namespace
}  // namespace evord
