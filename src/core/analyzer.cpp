#include "core/analyzer.hpp"

#include <sstream>

#include "core/report.hpp"
#include "util/check.hpp"

namespace evord {

OrderingAnalyzer::OrderingAnalyzer(Trace trace, ExactOptions options)
    : session_(std::make_shared<service::AnalysisSession>(
          std::make_shared<const Trace>(std::move(trace)), options)) {}

OrderingAnalyzer::OrderingAnalyzer(
    std::shared_ptr<service::AnalysisSession> session)
    : session_(std::move(session)) {
  EVORD_CHECK(session_ != nullptr, "OrderingAnalyzer needs a session");
}

const OrderingRelations& OrderingAnalyzer::relations(Semantics semantics) {
  auto& slot = relations_[static_cast<std::size_t>(semantics)];
  if (slot == nullptr) slot = session_->relations(semantics);
  return *slot;
}

bool OrderingAnalyzer::must_have_happened_before(EventId a, EventId b,
                                                 Semantics semantics) {
  return relations(semantics).holds(RelationKind::kMHB, a, b);
}

bool OrderingAnalyzer::could_have_happened_before(EventId a, EventId b,
                                                  Semantics semantics) {
  return relations(semantics).holds(RelationKind::kCHB, a, b);
}

bool OrderingAnalyzer::must_have_been_concurrent(EventId a, EventId b) {
  return relations(Semantics::kCausal).holds(RelationKind::kMCW, a, b);
}

bool OrderingAnalyzer::could_have_been_concurrent(EventId a, EventId b) {
  return relations(Semantics::kCausal).holds(RelationKind::kCCW, a, b);
}

bool OrderingAnalyzer::must_have_been_ordered(EventId a, EventId b) {
  return relations(Semantics::kCausal).holds(RelationKind::kMOW, a, b);
}

bool OrderingAnalyzer::could_have_been_ordered(EventId a, EventId b) {
  return relations(Semantics::kCausal).holds(RelationKind::kCOW, a, b);
}

std::optional<std::vector<EventId>> OrderingAnalyzer::witness_happened_before(
    EventId a, EventId b, Semantics semantics) {
  return witness_could_happen_before(session_->trace(), a, b, semantics,
                                     session_->options());
}

std::optional<std::vector<EventId>> OrderingAnalyzer::witness_concurrent(
    EventId a, EventId b) {
  return witness_could_be_concurrent(session_->trace(), a, b,
                                     session_->options());
}

const VectorClockResult& OrderingAnalyzer::vector_clocks() {
  return session_->vector_clocks();
}

const HmwResult& OrderingAnalyzer::hmw() { return session_->hmw(); }

const EgpResult& OrderingAnalyzer::egp() { return session_->egp(); }

const CombinedResult& OrderingAnalyzer::combined() {
  return session_->combined();
}

const DeadlockReport& OrderingAnalyzer::deadlocks() {
  if (deadlocks_ == nullptr) deadlocks_ = session_->deadlocks();
  return *deadlocks_;
}

bool OrderingAnalyzer::could_have_coexisted(EventId a, EventId b) {
  if (coexist_ == nullptr) coexist_ = session_->coexistence();
  return coexist_->can_coexist[a].test(b);
}

const RaceReport& OrderingAnalyzer::races(RaceDetector detector) {
  auto& slot = races_[static_cast<std::size_t>(detector)];
  if (slot == nullptr) slot = session_->races(detector);
  return *slot;
}

BoundedVerdict OrderingAnalyzer::anytime_must_have_happened_before(
    EventId a, EventId b, Semantics semantics) {
  return session_->anytime_must_have_happened_before(a, b, semantics);
}

BoundedVerdict OrderingAnalyzer::anytime_could_have_been_concurrent(
    EventId a, EventId b) {
  return session_->anytime_could_have_been_concurrent(a, b);
}

BoundedVerdict OrderingAnalyzer::anytime_can_deadlock() {
  return session_->anytime_can_deadlock();
}

const search::SearchStats& OrderingAnalyzer::search_stats(
    Semantics semantics) {
  return relations(semantics).search;
}

std::string OrderingAnalyzer::report(Semantics semantics) {
  std::ostringstream os;
  os << format_event_table(session_->trace());
  os << summarize_relations(session_->trace(), relations(semantics));
  return os.str();
}

}  // namespace evord
