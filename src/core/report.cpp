#include "core/report.hpp"

#include <sstream>

#include "graph/dot.hpp"
#include "graph/transitive_reduction.hpp"
#include "util/string_util.hpp"

namespace evord {

std::string format_event_table(const Trace& trace) {
  std::ostringstream os;
  os << "id   proc  pos  kind     operand        label\n";
  for (const Event& e : trace.events()) {
    std::string operand;
    switch (e.kind) {
      case EventKind::kSemP:
      case EventKind::kSemV:
        operand = trace.semaphores()[e.object].name;
        break;
      case EventKind::kPost:
      case EventKind::kWait:
      case EventKind::kClear:
        operand = trace.event_vars()[e.object].name;
        break;
      case EventKind::kFork:
      case EventKind::kJoin:
        operand = "p" + std::to_string(e.object);
        break;
      case EventKind::kCompute: {
        std::vector<std::string> parts;
        for (VarId v : e.reads) parts.push_back("r:" + trace.variables()[v]);
        for (VarId v : e.writes) parts.push_back("w:" + trace.variables()[v]);
        operand = join(parts, ",");
        break;
      }
    }
    os << strprintf("e%-3u p%-4u %-4u %-8s %-14s %s\n", e.id, e.process,
                    e.index_in_process, to_string(e.kind), operand.c_str(),
                    e.label.c_str());
  }
  return os.str();
}

std::string format_relation_grid(const RelationMatrix& relation,
                                 const std::string& title) {
  std::ostringstream os;
  os << title << " (" << relation.num_pairs() << " pairs)\n    ";
  for (std::size_t b = 0; b < relation.size(); ++b) {
    os << (b % 10);
  }
  os << '\n';
  for (EventId a = 0; a < relation.size(); ++a) {
    os << strprintf("%3u ", a);
    for (EventId b = 0; b < relation.size(); ++b) {
      os << (relation.holds(a, b) ? 'X' : '.');
    }
    os << '\n';
  }
  return os.str();
}

std::string summarize_relations(const Trace& trace,
                                const OrderingRelations& relations) {
  std::ostringstream os;
  os << "events=" << trace.num_events()
     << " processes=" << trace.num_processes()
     << " semantics=" << to_string(relations.semantics) << '\n';
  if (relations.feasible_empty) {
    os << "F(P) is EMPTY: no feasible execution completes\n";
  }
  if (relations.semantics == Semantics::kInterleaving) {
    os << "state-space states visited: " << relations.states_visited << '\n';
  } else {
    os << "schedules: " << relations.schedules_seen
       << "  causal classes: " << relations.causal_classes
       << "  deadlocked prefixes: " << relations.deadlocked_prefixes << '\n';
  }
  os << "search: states=" << relations.search.states_visited
     << " dedup hits=" << relations.search.dedup_hits
     << " memo bytes=" << relations.search.memo_bytes << '\n';
  if (relations.search.sleep_pruned != 0 ||
      relations.search.source_skipped != 0) {
    os << "reduction: sleep pruned=" << relations.search.sleep_pruned
       << " source skipped=" << relations.search.source_skipped;
    if (relations.search.dyn_excused != 0) {
      os << " dyn excused=" << relations.search.dyn_excused;
    }
    os << '\n';
  }
  if (!relations.search.depth_states.empty()) {
    os << "depth histogram: peak=" << relations.search.peak_depth()
       << " buckets=" << relations.search.depth_states.size() << '\n';
  }
  if (!relations.search.shard_sizes.empty()) {
    os << strprintf("fingerprint shards: %zu, load imbalance=%.2f\n",
                    relations.search.shard_sizes.size(),
                    relations.search.shard_imbalance());
  }
  if (relations.search.stop_reason != search::StopReason::kNone) {
    os << "search stopped by: "
       << search::to_string(relations.search.stop_reason) << '\n';
  }
  if (relations.truncated) {
    os << "WARNING: search truncated by budget; could-relations are "
          "under-approximate, must-relations over-approximate "
          "(anytime queries degrade such runs to sound bounded verdicts)\n";
  }
  for (RelationKind k : kAllRelationKinds) {
    os << strprintf("  %-3s : %6zu pairs\n", to_string(k),
                    relations[k].num_pairs());
  }
  return os.str();
}

namespace {
Digraph graph_from_relation(const RelationMatrix& relation) {
  Digraph g(relation.size());
  for (EventId a = 0; a < relation.size(); ++a) {
    const DynamicBitset& row = relation.row(a);
    for (std::size_t b = row.find_first(); b < row.size();
         b = row.find_next(b)) {
      g.add_edge(a, static_cast<NodeId>(b));
    }
  }
  g.finalize();
  return g;
}
}  // namespace

std::string relation_dot(const Trace& trace, const RelationMatrix& relation,
                         const std::string& name) {
  const Digraph reduced = transitive_reduction(graph_from_relation(relation));
  DotOptions options;
  options.graph_name = name;
  options.left_to_right = true;
  options.node_label = [&trace](NodeId u) {
    return describe(trace.event(static_cast<EventId>(u)));
  };
  return to_dot(reduced, options);
}

std::string trace_dot(const Trace& trace) {
  Digraph g = trace.static_order_graph();
  for (const auto& [a, b] : trace.dependences()) g.add_edge(a, b);
  g.finalize();
  DotOptions options;
  options.graph_name = "trace";
  options.left_to_right = true;
  options.node_label = [&trace](NodeId u) {
    return describe(trace.event(static_cast<EventId>(u)));
  };
  options.edge_attrs = [&trace](NodeId u, NodeId v) -> std::string {
    for (const auto& [a, b] : trace.dependences()) {
      if (a == u && b == v) return "style=dashed, color=red, label=\"D\"";
    }
    return {};
  };
  return to_dot(g, options);
}

std::string relation_csv(const RelationMatrix& relation) {
  std::ostringstream os;
  os << "from,to\n";
  for (EventId a = 0; a < relation.size(); ++a) {
    const DynamicBitset& row = relation.row(a);
    for (std::size_t b = row.find_first(); b < row.size();
         b = row.find_next(b)) {
      os << a << ',' << b << '\n';
    }
  }
  return os.str();
}

std::string relations_json(const Trace& trace,
                           const OrderingRelations& relations) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"semantics\": \"" << to_string(relations.semantics) << "\",\n";
  os << "  \"num_events\": " << trace.num_events() << ",\n";
  os << "  \"num_processes\": " << trace.num_processes() << ",\n";
  os << "  \"feasible_empty\": "
     << (relations.feasible_empty ? "true" : "false") << ",\n";
  os << "  \"truncated\": " << (relations.truncated ? "true" : "false")
     << ",\n";
  os << "  \"schedules_seen\": " << relations.schedules_seen << ",\n";
  os << "  \"causal_classes\": " << relations.causal_classes << ",\n";
  os << "  \"relations\": {\n";
  bool first_relation = true;
  for (RelationKind k : kAllRelationKinds) {
    if (!first_relation) os << ",\n";
    first_relation = false;
    os << "    \"" << to_string(k) << "\": [";
    const RelationMatrix& m = relations[k];
    bool first_pair = true;
    for (EventId a = 0; a < m.size(); ++a) {
      const DynamicBitset& row = m.row(a);
      for (std::size_t b = row.find_first(); b < row.size();
           b = row.find_next(b)) {
        if (!first_pair) os << ", ";
        first_pair = false;
        os << '[' << a << ',' << b << ']';
      }
    }
    os << ']';
  }
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace evord
