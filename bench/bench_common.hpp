// Shared fixtures for the experiment benches: the small 3CNF families
// the exact engines can exhaust, and trace generators mirroring
// tests/helpers.hpp (duplicated deliberately: benches must not depend on
// test code).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "feasible/stepper.hpp"
#include "sat/formula.hpp"
#include "trace/builder.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace evord::bench {

/// One flat JSON object; fields keep insertion order.  Values are
/// rendered on add() so the writer stays a dumb string joiner.
struct JsonRecord {
  std::vector<std::pair<std::string, std::string>> fields;

  /// Every digit a double needs to round-trip; NaN and infinities have
  /// no JSON spelling and are written as null.
  JsonRecord& add(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      fields.emplace_back(key, "null");
      return *this;
    }
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    fields.emplace_back(key, os.str());
    return *this;
  }
  JsonRecord& add(const std::string& key, std::uint64_t value) {
    fields.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    fields.emplace_back(key, std::move(quoted));
    return *this;
  }
};

/// Writes `rows` as a JSON array of objects — the BENCH_*.json format the
/// experiment scripts ingest.  Returns false on I/O failure.
inline bool write_json_records(const std::string& path,
                               const std::vector<JsonRecord>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "  {";
    for (std::size_t f = 0; f < rows[i].fields.size(); ++f) {
      if (f != 0) out << ", ";
      out << '"' << rows[i].fields[f].first
          << "\": " << rows[i].fields[f].second;
    }
    out << (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  out << "]\n";
  return out.good();
}

/// Renders one record the way write_json_records does, without the
/// surrounding array syntax.
inline std::string render_json_record(const JsonRecord& row) {
  std::ostringstream os;
  os << '{';
  for (std::size_t f = 0; f < row.fields.size(); ++f) {
    if (f != 0) os << ", ";
    os << '"' << row.fields[f].first << "\": " << row.fields[f].second;
  }
  os << '}';
  return os.str();
}

/// Appends `rows` to the JSON array at `path`, creating it if absent —
/// several bench binaries contribute rows to one BENCH_*.json this way.
/// Only understands the one-object-per-line format of
/// write_json_records; anything else is overwritten.
inline bool append_json_records(const std::string& path,
                                const std::vector<JsonRecord>& rows) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      const std::size_t begin = line.find('{');
      const std::size_t end = line.rfind('}');
      if (begin == std::string::npos || end == std::string::npos) continue;
      lines.push_back(line.substr(begin, end - begin + 1));
    }
  }
  for (const JsonRecord& row : rows) lines.push_back(render_json_record(row));
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << "  " << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

// ----------------------------------------------------------------------
// Legacy memo-representation baselines for BENCH_search.json.
//
// Before the unified search core, the memoized engines keyed their
// memo/visited tables on full encode_key() word vectors; the core now
// keys them on 64-bit incremental fingerprints (8-9 bytes/state, with a
// debug collision cross-check).  The walkers below reconstruct the old
// representation — full key vector per state — so the benches can report
// measured before/after states/sec and bytes/state.  They live here, in
// bench code, on purpose: no analysis engine keeps a private DFS anymore.

struct KeyVectorHash {
  std::size_t operator()(const std::vector<std::uint64_t>& key) const {
    return static_cast<std::size_t>(
        fingerprint_words(key, DynamicBitset::kHashSeed));
  }
};

struct LegacyWalkStats {
  std::uint64_t states = 0;       ///< distinct states tabled
  std::uint64_t table_bytes = 0;  ///< payload bytes held by the table
  bool result = false;            ///< completable / can-deadlock verdict
};

/// The pre-refactor memoized completability sweep: memo maps each full
/// encode_key vector to "a complete schedule is reachable from here".
inline LegacyWalkStats legacy_keyvec_completable(const Trace& trace,
                                                 StepperOptions options = {}) {
  TraceStepper st(trace, options);
  std::unordered_map<std::vector<std::uint64_t>, bool, KeyVectorHash> memo;
  const auto explore = [&](const auto& self) -> bool {
    if (st.complete()) return true;
    std::vector<std::uint64_t> key;
    st.encode_key(key);
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    bool ok = false;
    std::vector<EventId> enabled;
    st.enabled_events(enabled);
    // No early exit: the old matrix-building engine explored every child
    // (it needed marks from all of them), and so does the new one — this
    // keeps the two sweeps' state sets identical for the comparison.
    for (const EventId e : enabled) {
      const TraceStepper::Undo u = st.apply(e);
      const bool child = self(self);
      st.undo(u);
      ok = ok || child;
    }
    memo.emplace(std::move(key), ok);
    return ok;
  };
  LegacyWalkStats stats;
  stats.result = explore(explore);
  stats.states = memo.size();
  for (const auto& [key, value] : memo) {
    stats.table_bytes += sizeof(key) + key.capacity() * sizeof(std::uint64_t) +
                         sizeof(value);
  }
  return stats;
}

/// The pre-refactor deadlock search: the visited set holds one full
/// encode_key vector per distinct state.
inline LegacyWalkStats legacy_keyvec_deadlock(const Trace& trace,
                                              StepperOptions options = {}) {
  TraceStepper st(trace, options);
  std::unordered_set<std::vector<std::uint64_t>, KeyVectorHash> visited;
  bool can_deadlock = false;
  const auto explore = [&](const auto& self) -> void {
    if (st.complete()) return;
    std::vector<std::uint64_t> key;
    st.encode_key(key);
    if (!visited.insert(std::move(key)).second) return;
    std::vector<EventId> enabled;
    st.enabled_events(enabled);
    if (enabled.empty()) {
      can_deadlock = true;
      return;
    }
    for (const EventId e : enabled) {
      const TraceStepper::Undo u = st.apply(e);
      self(self);
      st.undo(u);
    }
  };
  LegacyWalkStats stats;
  explore(explore);
  stats.result = can_deadlock;
  stats.states = visited.size();
  for (const auto& key : visited) {
    stats.table_bytes +=
        sizeof(key) + key.capacity() * sizeof(std::uint64_t);
  }
  return stats;
}

/// (x v x v x): satisfiable, the smallest reduction instance.
inline CnfFormula tiny_sat() {
  CnfFormula f;
  f.add_clause({1, 1, 1});
  return f;
}

/// (x)(−x): unsatisfiable.
inline CnfFormula tiny_unsat() {
  CnfFormula f;
  f.add_clause({1, 1, 1});
  f.add_clause({-1, -1, -1});
  return f;
}

/// Graded UNSAT family over ONE variable: (x) plus m-1 copies of (-x).
/// Every member is unsatisfiable, so the exact decision must exhaust the
/// state space (the co-NP side).  Measured growth of the reduction's
/// reachable states: m=2 -> ~8e3, m=3 -> ~3e5, m=4 -> ~1.2e7 — about
/// x40 per clause, the paper's exponential wall.
inline CnfFormula scaling_unsat(std::int32_t num_clauses) {
  CnfFormula f;
  f.add_clause({1, 1, 1});
  for (std::int32_t c = 1; c < num_clauses; ++c) {
    f.add_clause({-1, -1, -1});
  }
  return f;
}

/// Satisfiable counterpart: m copies of (x).
inline CnfFormula scaling_sat(std::int32_t num_clauses) {
  CnfFormula f;
  for (std::int32_t c = 0; c < num_clauses; ++c) {
    f.add_clause({1, 1, 1});
  }
  return f;
}

/// Multi-variable UNSAT family (k vars, 2k clauses) for the SAT-oracle
/// side of the scaling experiment, where size is unconstrained.
inline CnfFormula scaling_unsat_vars(std::int32_t copies) {
  CnfFormula f;
  for (std::int32_t v = 1; v <= copies; ++v) {
    f.add_clause({v, v, v});
    f.add_clause({-v, -v, -v});
  }
  return f;
}

/// Random semaphore trace (valid by construction); same scheme as the
/// test helper.
inline Trace random_sem_trace(std::size_t num_events, std::size_t num_procs,
                              std::size_t num_sems, Rng& rng,
                              std::size_t num_vars = 2) {
  TraceBuilder b;
  std::vector<ObjectId> sems;
  for (std::size_t s = 0; s < num_sems; ++s) {
    sems.push_back(b.semaphore("s" + std::to_string(s)));
  }
  std::vector<VarId> vars;
  for (std::size_t v = 0; v < num_vars; ++v) {
    vars.push_back(b.variable("x" + std::to_string(v)));
  }
  std::vector<ProcId> procs{b.root()};
  while (procs.size() < num_procs) procs.push_back(b.add_process());
  std::vector<int> count(num_sems, 0);
  for (std::size_t i = 0; i < num_events; ++i) {
    const ProcId p = procs[rng.below(procs.size())];
    const std::size_t s = rng.below(num_sems);
    if (rng.chance(0.55)) {
      if (count[s] > 0 && rng.chance(0.5)) {
        b.sem_p(p, sems[s]);
        --count[s];
      } else {
        b.sem_v(p, sems[s]);
        ++count[s];
      }
    } else if (!vars.empty()) {
      const bool write = rng.chance(0.5);
      const VarId v = vars[rng.below(vars.size())];
      b.compute(p, "", write ? std::vector<VarId>{} : std::vector<VarId>{v},
                write ? std::vector<VarId>{v} : std::vector<VarId>{});
    }
  }
  return b.build();
}

/// Random event-style (Post/Wait/Clear) trace.
inline Trace random_event_trace(std::size_t num_events,
                                std::size_t num_procs, std::size_t num_evs,
                                Rng& rng) {
  TraceBuilder b;
  std::vector<ObjectId> evs;
  for (std::size_t v = 0; v < num_evs; ++v) {
    evs.push_back(b.event_var("e" + std::to_string(v)));
  }
  std::vector<ProcId> procs{b.root()};
  while (procs.size() < num_procs) procs.push_back(b.add_process());
  std::vector<bool> posted(num_evs, false);
  for (std::size_t i = 0; i < num_events; ++i) {
    const ProcId p = procs[rng.below(procs.size())];
    const std::size_t v = rng.below(num_evs);
    if (posted[v] && rng.chance(0.4)) {
      b.wait(p, evs[v]);
    } else if (posted[v] && rng.chance(0.3)) {
      b.clear(p, evs[v]);
      posted[v] = false;
    } else {
      b.post(p, evs[v]);
      posted[v] = true;
    }
  }
  return b.build();
}

}  // namespace evord::bench
