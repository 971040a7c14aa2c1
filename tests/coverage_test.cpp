// Coverage for corners the main suites do not reach: policy fallbacks,
// less-used accessors, alternate object configurations.
#include <gtest/gtest.h>

#include "approx/hmw.hpp"
#include "approx/vector_clock.hpp"
#include "graph/dot.hpp"
#include "ordering/exact.hpp"
#include "sync/program.hpp"
#include "sync/scheduler.hpp"
#include "trace/builder.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace evord {
namespace {

TEST(Coverage, RngPickReturnsContainedElement) {
  Rng rng(1);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Coverage, BitsetIntersectsToleratesSizeMismatch) {
  DynamicBitset a(10);
  DynamicBitset b(100);
  a.set(3);
  b.set(3);
  EXPECT_TRUE(a.intersects(b));  // compares the common word prefix
  EXPECT_FALSE(a.is_subset_of(b));  // subset requires equal sizes
}

TEST(Coverage, StrprintfEmptyAndLong) {
  EXPECT_EQ(strprintf("%s", ""), "");
  const std::string big(500, 'x');
  EXPECT_EQ(strprintf("%s", big.c_str()).size(), 500u);
}

TEST(Coverage, PriorityPolicyFallsBackForUnlistedProcesses) {
  Program prog;
  const ProcId p0 = prog.add_process("p0");
  const ProcId p1 = prog.add_process("p1");
  prog.append(p0, Stmt::skip("a"));
  prog.append(p1, Stmt::skip("b"));
  PriorityPolicy policy({});  // empty priority: always index 0
  const RunResult run = run_program(prog, policy);
  EXPECT_EQ(run.status, RunStatus::kCompleted);
  EXPECT_EQ(run.trace.event(run.trace.observed_order()[0]).process, p0);
}

TEST(Coverage, DotNodeAttrsEmitted) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.finalize();
  DotOptions options;
  options.node_attrs = [](NodeId u) {
    return u == 0 ? std::string("shape=box") : std::string();
  };
  const std::string dot = to_dot(g, options);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
}

TEST(Coverage, HmwHandlesBinarySemaphores) {
  TraceBuilder b;
  const ObjectId m = b.binary_semaphore("m", 1);
  const ProcId p1 = b.add_process();
  b.sem_p(b.root(), m);   // takes the initial token
  b.sem_v(b.root(), m);   // releases
  b.sem_p(p1, m);         // takes the released token
  const Trace t = b.build();
  const HmwResult r = compute_hmw(t);
  // The count rule cannot prove V -> P(p1): the initial token could
  // nominally serve p1's P, and ruling that out needs deadlock-avoidance
  // reasoning (if p1 takes it, the root's P wedges and the schedule
  // never completes).  HMW stays silent — soundly — while the exact
  // analysis proves the ordering.  A precision gap of exactly the kind
  // the paper predicts must exist.
  EXPECT_FALSE(r.safe_happened_before.holds(1, 2));
  const OrderingRelations exact = compute_exact(t, Semantics::kCausal);
  EXPECT_TRUE(exact.holds(RelationKind::kMHB, 1, 2));
  EXPECT_TRUE(r.safe_happened_before.subset_of(exact[RelationKind::kMHB]));
}

TEST(Coverage, VectorClocksWithInitialTokens) {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s", 1);
  const ProcId p1 = b.add_process();
  b.sem_p(p1, s);        // initial token: no producer, no edge
  b.sem_v(b.root(), s);  // unrelated V
  const Trace t = b.build();
  const VectorClockResult vc = compute_vector_clocks(t);
  EXPECT_FALSE(vc.happened_before.holds(1, 0));
  EXPECT_FALSE(vc.happened_before.holds(0, 1));
}

TEST(Coverage, StmtIfEqCarriesLabel) {
  const Stmt s = Stmt::if_eq(0, 1, {}, {}, "branch point");
  EXPECT_EQ(s.label, "branch point");
  EXPECT_EQ(s.kind, StmtKind::kIf);
}

TEST(Coverage, ProgramAppendAllPreservesOrder) {
  Program prog;
  const ProcId p = prog.add_process("main");
  prog.append_all(p, {Stmt::skip("1"), Stmt::skip("2"), Stmt::skip("3")});
  ASSERT_EQ(prog.process(p).body.size(), 3u);
  EXPECT_EQ(prog.process(p).body[1].label, "2");
}

TEST(Coverage, EventVarInitiallyPostedRoundsThroughEverything) {
  TraceBuilder b;
  const ObjectId e = b.event_var("go", /*initially_posted=*/true);
  const ProcId p1 = b.add_process();
  b.wait(b.root(), e);   // no post anywhere: satisfied by the initial state
  b.wait(p1, e);
  const Trace t = b.build();
  const OrderingRelations r = compute_exact(t, Semantics::kCausal);
  // Neither wait has a causal source: fully concurrent.
  EXPECT_TRUE(r.holds(RelationKind::kMCW, 0, 1));
}

TEST(Coverage, DigraphSelfEdgeAfterFinalizeQueries) {
  Digraph g(3);
  g.add_edge(2, 2);
  EXPECT_TRUE(g.has_edge(2, 2));  // pre-finalize linear search
  g.finalize();
  EXPECT_TRUE(g.has_edge(2, 2));  // post-finalize binary search
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Coverage, RoundRobinWrapsAround) {
  RoundRobinPolicy policy;
  const std::vector<ProcId> runnable{1, 4};
  EXPECT_EQ(policy.pick(runnable), 0u);  // first > last_(0) is 1
  EXPECT_EQ(policy.pick(runnable), 1u);  // then 4
  EXPECT_EQ(policy.pick(runnable), 0u);  // wraps to 1
}

}  // namespace
}  // namespace evord
