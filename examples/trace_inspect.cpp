// trace_inspect: a command-line trace analyzer.
//
//   $ ./trace_inspect <trace-file> [--semantics causal|interleaving|interval]
//                     [--dot] [--races] [--grid] [--json] [--csv REL]
//                     [--deadlocks]
//
// Loads an evord trace file (see trace_io.hpp for the format), validates
// the model axioms, computes the exact ordering relations and prints a
// report.  With --dot it emits the trace structure and the reduced MHB
// relation as Graphviz; with --races it runs all three race detectors;
// with --grid it prints the full relation matrices.
//
// With no file argument it analyzes a built-in demo trace, so the binary
// is runnable out of the box.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/report.hpp"
#include "service/session.hpp"
#include "trace/trace_io.hpp"

namespace {

const char* kDemoTrace = R"(evord-trace 1
# demo: a barrier implemented with two semaphores
sem left 0
sem right 0
var x
procs 2
schedule
0 compute label="x := 1" w=x
0 V left
1 V right
0 P right
1 P left
1 compute label="use x" r=x
end
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace evord;

  std::string path;
  Semantics semantics = Semantics::kCausal;
  bool dot = false;
  bool races = false;
  bool grid = false;
  bool json = false;
  bool deadlocks = false;
  std::string csv_relation;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dot") {
      dot = true;
    } else if (arg == "--races") {
      races = true;
    } else if (arg == "--grid") {
      grid = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--deadlocks") {
      deadlocks = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_relation = argv[++i];
    } else if (arg == "--semantics" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "causal") {
        semantics = Semantics::kCausal;
      } else if (value == "interleaving") {
        semantics = Semantics::kInterleaving;
      } else if (value == "interval") {
        semantics = Semantics::kInterval;
      } else {
        std::fprintf(stderr, "unknown semantics '%s'\n", value.c_str());
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: %s [trace-file] [--semantics MODE] [--dot] "
                   "[--races] [--grid] [--json] [--csv REL] "
                   "[--deadlocks]\n",
                   argv[0]);
      return 2;
    } else {
      path = arg;
    }
  }

  Trace trace;
  try {
    trace = path.empty() ? parse_trace_string(kDemoTrace)
                         : load_trace_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load trace: %s\n", e.what());
    return 1;
  }
  if (path.empty()) {
    std::printf("(no file given; analyzing the built-in demo trace)\n\n");
  }

  service::AnalysisSession session(
      std::make_shared<const Trace>(std::move(trace)));
  const Trace& analyzed = session.trace();
  const auto relations = session.relations(semantics);
  const OrderingRelations& rel = *relations;
  std::printf("%s%s\n", format_event_table(analyzed).c_str(),
              summarize_relations(analyzed, rel).c_str());

  if (grid) {
    for (RelationKind k : kAllRelationKinds) {
      std::printf("%s\n",
                  format_relation_grid(rel[k], to_string(k)).c_str());
    }
  }
  if (races) {
    for (RaceDetector d : {RaceDetector::kObserved, RaceDetector::kGuaranteed,
                           RaceDetector::kExact}) {
      std::printf("%s", session.races(d)->summary(analyzed).c_str());
    }
  }
  if (json) {
    std::printf("%s", relations_json(analyzed, rel).c_str());
  }
  if (!csv_relation.empty()) {
    const RelationKind kind = [&]() {
      for (RelationKind k : kAllRelationKinds) {
        if (csv_relation == to_string(k)) return k;
      }
      std::fprintf(stderr, "unknown relation '%s' (use MHB/CHB/MCW/CCW/"
                           "MOW/COW)\n", csv_relation.c_str());
      std::exit(2);
    }();
    std::printf("%s", relation_csv(rel[kind]).c_str());
  }
  if (deadlocks) {
    // Hold the pointer: a truncated report is not cached, so nothing
    // else keeps it alive.
    const auto report = session.deadlocks();
    std::printf("can deadlock: %s (%llu stuck state(s), %zu states "
                "visited)%s\n",
                report->can_deadlock ? "YES" : "no",
                static_cast<unsigned long long>(report->stuck_states),
                report->states_visited,
                report->truncated ? " [truncated]" : "");
    if (report->can_deadlock) {
      std::printf("wedging prefix:");
      for (EventId e : report->witness_prefix) std::printf(" e%u", e);
      std::printf("\n");
    }
  }
  if (dot) {
    std::printf("\n%s\n", trace_dot(analyzed).c_str());
    std::printf("%s\n",
                relation_dot(analyzed, rel[RelationKind::kMHB], "MHB").c_str());
  }
  return 0;
}
