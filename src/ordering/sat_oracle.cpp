#include "ordering/sat_oracle.hpp"

#include <algorithm>

#include "feasible/stepper.hpp"
#include "graph/reachability.hpp"
#include "ordering/causal.hpp"
#include "sat/cdcl.hpp"
#include "sat/encode_trace.hpp"
#include "util/check.hpp"

namespace evord {

const char* to_string(OracleVerdict verdict) {
  switch (verdict) {
    case OracleVerdict::kUnknown:
      return "unknown";
    case OracleVerdict::kProven:
      return "proven";
    case OracleVerdict::kRefuted:
      return "refuted";
  }
  return "?";
}

SatOracle::SatOracle(const Trace& trace, SatOracleOptions options)
    : trace_(&trace), options_(options), n_(trace.num_events()) {
  available_ = n_ > 0 && n_ <= options_.max_events;
  if (!available_) return;

  p_yes_ = RelationMatrix(n_);
  p_no_ = RelationMatrix(n_);
  seen_desc_ = RelationMatrix(n_);
  seen_incomp_ = RelationMatrix(n_);
  seen_not_desc_ = RelationMatrix(n_);
  data_pair_ = RelationMatrix(n_);

  // R_always: edges present in the causal order of EVERY class — the
  // static order, plus the F3 data edges when schedules must respect
  // them AND data edges count as causal.
  Digraph always = trace.static_order_graph();
  if (options_.respect_dependences && options_.causal_data_edges) {
    for (const DependenceEdge& d : trace.dependences()) {
      always.add_edge(d.first, d.second);
    }
  }
  r_always_ = RelationMatrix(n_);
  for (EventId e = 0; e < n_; ++e) {
    r_always_.row(e) = reachable_from(always, e);
    r_always_.row(e).reset(e);
  }

  // R_sup: a superset of the causal edges of ANY class — static order,
  // every V -> P and Post -> Wait pairing candidate, and (when causal)
  // data edges in every direction a schedule could give them.  A pair
  // unreachable here is causally unordered in every class.
  Digraph sup = trace.static_order_graph();
  std::vector<std::vector<EventId>> sem_p(trace.semaphores().size());
  std::vector<std::vector<EventId>> sem_v(trace.semaphores().size());
  std::vector<std::vector<EventId>> ev_post(trace.event_vars().size());
  std::vector<std::vector<EventId>> ev_wait(trace.event_vars().size());
  for (const Event& e : trace.events()) {
    switch (e.kind) {
      case EventKind::kSemP:
        sem_p[e.object].push_back(e.id);
        break;
      case EventKind::kSemV:
        sem_v[e.object].push_back(e.id);
        break;
      case EventKind::kPost:
        ev_post[e.object].push_back(e.id);
        break;
      case EventKind::kWait:
        ev_wait[e.object].push_back(e.id);
        break;
      default:
        break;
    }
  }
  for (ObjectId s = 0; s < trace.semaphores().size(); ++s) {
    for (EventId v : sem_v[s]) {
      for (EventId p : sem_p[s]) sup.add_edge(v, p);
    }
  }
  for (ObjectId ev = 0; ev < trace.event_vars().size(); ++ev) {
    for (EventId post : ev_post[ev]) {
      for (EventId w : ev_wait[ev]) sup.add_edge(post, w);
    }
  }
  if (options_.causal_data_edges) {
    for (const DependenceEdge& c : trace.conflicting_pairs()) {
      sup.add_edge(c.first, c.second);
      sup.add_edge(c.second, c.first);
      data_pair_.set(c.first, c.second);
      data_pair_.set(c.second, c.first);
    }
    for (const DependenceEdge& d : trace.dependences()) {
      sup.add_edge(d.first, d.second);
      if (!options_.respect_dependences) sup.add_edge(d.second, d.first);
      data_pair_.set(d.first, d.second);
      data_pair_.set(d.second, d.first);
    }
  }
  r_sup_ = RelationMatrix(n_);
  for (EventId e = 0; e < n_; ++e) {
    r_sup_.row(e) = reachable_from(sup, e);
    r_sup_.row(e).reset(e);
  }
}

SatOracle::~SatOracle() = default;

void SatOracle::build_solver() {
  if (solver_ != nullptr || !available_) return;
  encoder_ = std::make_unique<TraceCnf>(
      *trace_, TraceCnfOptions{options_.respect_dependences});
  CdclOptions cdcl;
  cdcl.max_conflicts = options_.max_conflicts;
  solver_ = std::make_unique<CdclSolver>(cdcl);
  solver_->add_formula(encoder_->formula());
  ++stats_.solver_builds;
  stats_.encode_vars = static_cast<std::size_t>(encoder_->formula().num_vars());
  stats_.encode_clauses = encoder_->formula().num_clauses();
  // Seed the pair memo and the witness-class pool with the observed
  // execution: it is feasible by construction, so F(P) is non-empty and
  // about n^2/2 P(a, b) answers come for free.
  if (feasible_ == Tri::kUnknown && fold_schedule(trace_->observed_order())) {
    feasible_ = Tri::kYes;
  }
}

bool SatOracle::fold_schedule(const std::vector<EventId>& schedule) {
  if (schedule.size() != n_) return false;
  TraceStepper stepper(*trace_,
                       StepperOptions{options_.respect_dependences});
  for (EventId e : schedule) {
    if (!stepper.enabled(e)) return false;
    stepper.apply(e);
  }
  if (!stepper.complete()) return false;

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    for (std::size_t j = i + 1; j < schedule.size(); ++j) {
      p_yes_.set(schedule[i], schedule[j]);
    }
  }

  if (folds_.size() < options_.max_witness_folds) {
    Fold fold;
    fold.schedule = schedule;
    fold.position.assign(n_, 0);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      fold.position[schedule[i]] = i;
    }
    const TransitiveClosure tc = causal_closure(
        *trace_, schedule, CausalOptions{options_.causal_data_edges});
    fold.descendants.reserve(n_);
    for (EventId e = 0; e < n_; ++e) {
      fold.descendants.push_back(tc.descendants(e));
      for (EventId f = 0; f < n_; ++f) {
        if (e == f) continue;
        if (tc.reachable(e, f)) {
          seen_desc_.set(e, f);
        } else {
          seen_not_desc_.set(e, f);
          if (!tc.reachable(f, e)) seen_incomp_.set(e, f);
        }
      }
    }
    folds_.push_back(std::move(fold));
  }
  return true;
}

SatOracle::Tri SatOracle::precedes(EventId a, EventId b) {
  if (p_yes_.holds(a, b)) {
    ++stats_.pair_memo_hits;
    return Tri::kYes;
  }
  if (p_no_.holds(a, b)) {
    ++stats_.pair_memo_hits;
    return Tri::kNo;
  }
  build_solver();
  ++stats_.sat_calls;
  CdclResult r = solver_->solve_under_assumptions(
      {encoder_->order_lit(a, b)}, conflict_override_, time_override_);
  if (!r.decided) {
    ++stats_.sat_undecided;
    return Tri::kUnknown;
  }
  if (r.sat.satisfiable) {
    ++stats_.sat_models;
    ++stats_.witnesses_replayed;
    const std::vector<EventId> schedule =
        encoder_->decode_schedule(r.sat.model);
    if (!fold_schedule(schedule)) {
      // The encoding is exact, so this is pure insurance; an invalid
      // model is never trusted and the query degrades to kUnknown.
      ++stats_.witness_replay_failures;
      return Tri::kUnknown;
    }
    feasible_ = Tri::kYes;
    return Tri::kYes;
  }
  ++stats_.sat_unsat;
  p_no_.set(a, b);
  // A total order puts one of a, b first: UNSAT(a before b) plus a
  // non-empty F forces b before a somewhere.
  if (feasible_ == Tri::kYes) p_yes_.set(b, a);
  return Tri::kNo;
}

OracleVerdict SatOracle::feasible() {
  if (!available_) return OracleVerdict::kUnknown;
  if (feasible_ == Tri::kUnknown) {
    build_solver();  // seeds from the observed schedule
  }
  if (feasible_ == Tri::kUnknown) {
    ++stats_.sat_calls;
    CdclResult r = solver_->solve_under_assumptions({}, conflict_override_,
                                                    time_override_);
    if (!r.decided) {
      ++stats_.sat_undecided;
      return OracleVerdict::kUnknown;
    }
    if (r.sat.satisfiable) {
      ++stats_.sat_models;
      ++stats_.witnesses_replayed;
      if (fold_schedule(encoder_->decode_schedule(r.sat.model))) {
        feasible_ = Tri::kYes;
      } else {
        ++stats_.witness_replay_failures;
        return OracleVerdict::kUnknown;
      }
    } else {
      ++stats_.sat_unsat;
      feasible_ = Tri::kNo;
    }
  }
  return feasible_ == Tri::kYes ? OracleVerdict::kProven
                                : OracleVerdict::kRefuted;
}

OracleVerdict SatOracle::done(OracleVerdict v) {
  if (v != OracleVerdict::kUnknown) ++stats_.decided;
  return v;
}

OracleVerdict SatOracle::query(RelationKind kind, EventId a, EventId b,
                               Semantics semantics) {
  ++stats_.queries;
  last_witness_.reset();
  if (!available_ || a >= n_ || b >= n_) return OracleVerdict::kUnknown;
  // Every relation's diagonal is empty (exact.cpp fill conventions).
  if (a == b) return done(OracleVerdict::kRefuted);

  const OracleVerdict feas = feasible();
  if (feas == OracleVerdict::kUnknown) return OracleVerdict::kUnknown;
  if (feas == OracleVerdict::kRefuted) {
    // F empty: must-relations vacuously total, could-relations empty.
    return done(is_must_relation(kind) ? OracleVerdict::kProven
                                       : OracleVerdict::kRefuted);
  }

  OracleVerdict v;
  if (semantics == Semantics::kInterleaving) {
    v = interleaving_query(kind, a, b);
  } else {
    v = causal_query(kind, a, b, semantics == Semantics::kInterval);
  }
  if (v != OracleVerdict::kUnknown) attach_witness(kind, semantics, a, b, v);
  return done(v);
}

OracleVerdict SatOracle::interleaving_query(RelationKind kind, EventId a,
                                            EventId b) {
  switch (kind) {
    case RelationKind::kMHB: {
      // a MHB b == no schedule runs b before a.
      const Tri t = precedes(b, a);
      if (t == Tri::kYes) return OracleVerdict::kRefuted;
      if (t == Tri::kNo) return OracleVerdict::kProven;
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kCHB: {
      const Tri t = precedes(a, b);
      if (t == Tri::kYes) return OracleVerdict::kProven;
      if (t == Tri::kNo) return OracleVerdict::kRefuted;
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kMCW:
    case RelationKind::kCCW:
      return OracleVerdict::kRefuted;  // total orders have no concurrency
    case RelationKind::kMOW:
    case RelationKind::kCOW:
      return OracleVerdict::kProven;
  }
  return OracleVerdict::kUnknown;
}

OracleVerdict SatOracle::causal_query(RelationKind kind, EventId a, EventId b,
                                      bool interval) {
  // "dp": a data pair is causally comparable in EVERY class, with the
  // causal direction equal to the schedule direction.
  const bool dp = options_.causal_data_edges && data_pair_.holds(a, b);
  const bool never_ab = !r_sup_.holds(a, b);  // no class orders a ->C b
  const bool never_ba = !r_sup_.holds(b, a);

  switch (kind) {
    case RelationKind::kMHB: {
      // MHB == every class has a ->C b (causal and interval alike).
      if (r_always_.holds(a, b)) return OracleVerdict::kProven;
      if (never_ab) return OracleVerdict::kRefuted;
      if (seen_not_desc_.holds(a, b)) return OracleVerdict::kRefuted;
      const Tri t = precedes(b, a);
      // A schedule with b before a cannot have a ->C b in its class
      // (causal order embeds in schedule order), so SAT refutes.
      if (t == Tri::kYes) return OracleVerdict::kRefuted;
      if (t == Tri::kNo && dp) return OracleVerdict::kProven;
      if (seen_not_desc_.holds(a, b)) return OracleVerdict::kRefuted;
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kCHB: {
      if (interval) {
        // Interval CHB == some class lacks b ->C a (a's interval can
        // then be timed wholly before b's).
        if (seen_not_desc_.holds(b, a)) return OracleVerdict::kProven;
        if (never_ba) return OracleVerdict::kProven;
        if (r_always_.holds(b, a)) return OracleVerdict::kRefuted;
        const Tri t = precedes(a, b);
        if (t == Tri::kYes) return OracleVerdict::kProven;
        if (t == Tri::kNo && dp) return OracleVerdict::kRefuted;
        if (seen_not_desc_.holds(b, a)) return OracleVerdict::kProven;
        return OracleVerdict::kUnknown;
      }
      // Causal CHB == some class has a ->C b.
      if (r_always_.holds(a, b)) return OracleVerdict::kProven;
      if (seen_desc_.holds(a, b)) return OracleVerdict::kProven;
      if (never_ab) return OracleVerdict::kRefuted;
      const Tri t = precedes(a, b);
      if (t == Tri::kNo) return OracleVerdict::kRefuted;
      if (t == Tri::kYes) {
        if (dp) return OracleVerdict::kProven;
        if (seen_desc_.holds(a, b)) return OracleVerdict::kProven;
      }
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kMCW: {
      // MCW == a, b incomparable in every class (empty under interval).
      if (interval) return OracleVerdict::kRefuted;
      if (dp || r_always_.holds(a, b) || r_always_.holds(b, a)) {
        return OracleVerdict::kRefuted;
      }
      if (seen_desc_.holds(a, b) || seen_desc_.holds(b, a)) {
        return OracleVerdict::kRefuted;
      }
      if (never_ab && never_ba) return OracleVerdict::kProven;
      precedes(a, b);
      precedes(b, a);
      if (seen_desc_.holds(a, b) || seen_desc_.holds(b, a)) {
        return OracleVerdict::kRefuted;
      }
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kCCW: {
      // CCW == a, b incomparable in some class (causal and interval).
      if (dp || r_always_.holds(a, b) || r_always_.holds(b, a)) {
        return OracleVerdict::kRefuted;
      }
      if (seen_incomp_.holds(a, b)) return OracleVerdict::kProven;
      if (never_ab && never_ba) return OracleVerdict::kProven;
      precedes(a, b);
      if (seen_incomp_.holds(a, b)) return OracleVerdict::kProven;
      precedes(b, a);
      if (seen_incomp_.holds(a, b)) return OracleVerdict::kProven;
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kMOW: {
      // MOW == no class has them incomparable (causal and interval).
      if (dp || r_always_.holds(a, b) || r_always_.holds(b, a)) {
        return OracleVerdict::kProven;
      }
      if (seen_incomp_.holds(a, b)) return OracleVerdict::kRefuted;
      if (never_ab && never_ba) return OracleVerdict::kRefuted;
      precedes(a, b);
      if (seen_incomp_.holds(a, b)) return OracleVerdict::kRefuted;
      precedes(b, a);
      if (seen_incomp_.holds(a, b)) return OracleVerdict::kRefuted;
      return OracleVerdict::kUnknown;
    }
    case RelationKind::kCOW: {
      // COW == comparable in some class (total under interval).
      if (interval) return OracleVerdict::kProven;
      if (dp || r_always_.holds(a, b) || r_always_.holds(b, a)) {
        return OracleVerdict::kProven;
      }
      if (seen_desc_.holds(a, b) || seen_desc_.holds(b, a)) {
        return OracleVerdict::kProven;
      }
      if (never_ab && never_ba) return OracleVerdict::kRefuted;
      precedes(a, b);
      precedes(b, a);
      if (seen_desc_.holds(a, b) || seen_desc_.holds(b, a)) {
        return OracleVerdict::kProven;
      }
      return OracleVerdict::kUnknown;
    }
  }
  return OracleVerdict::kUnknown;
}

void SatOracle::attach_witness(RelationKind kind, Semantics semantics,
                               EventId a, EventId b, OracleVerdict verdict) {
  // Only could-proofs and must-refutations have schedule-shaped evidence.
  const bool want =
      (verdict == OracleVerdict::kProven && !is_must_relation(kind)) ||
      (verdict == OracleVerdict::kRefuted && kind == RelationKind::kMHB);
  if (!want) return;
  const bool interleaving = semantics == Semantics::kInterleaving;
  const bool interval = semantics == Semantics::kInterval;
  for (auto it = folds_.rbegin(); it != folds_.rend(); ++it) {
    const Fold& f = *it;
    bool ok = false;
    switch (kind) {
      case RelationKind::kMHB:  // counterexample: a class without a T b
        ok = interleaving ? f.position[b] < f.position[a]
                          : !f.descendants[a].test(b);
        break;
      case RelationKind::kCHB:
        if (interleaving) {
          ok = f.position[a] < f.position[b];
        } else if (interval) {
          ok = !f.descendants[b].test(a);
        } else {
          ok = f.descendants[a].test(b);
        }
        break;
      case RelationKind::kCCW:
        ok = !interleaving && !f.descendants[a].test(b) &&
             !f.descendants[b].test(a);
        break;
      case RelationKind::kCOW:
        ok = interleaving || interval || f.descendants[a].test(b) ||
             f.descendants[b].test(a);
        break;
      default:
        break;
    }
    if (ok) {
      last_witness_ = f.schedule;
      return;
    }
  }
}

SatOracleStats SatOracle::stats() const {
  SatOracleStats s = stats_;
  if (solver_ != nullptr) s.solver = solver_->cumulative_stats();
  return s;
}

}  // namespace evord
