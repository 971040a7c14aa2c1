#include "feasible/stepper.hpp"

#include "util/check.hpp"
#include "util/dynamic_bitset.hpp"

namespace evord {

TraceStepper::TraceStepper(const Trace& trace, StepperOptions options)
    : trace_(&trace),
      options_(options),
      positions_(trace.num_processes(), 0),
      posted_(trace.event_vars().size()),
      done_(trace.num_events()) {
  counts_.reserve(trace.semaphores().size());
  p_executed_.assign(trace.semaphores().size(), 0);
  binary_.reserve(trace.semaphores().size());
  for (const SemaphoreInfo& s : trace.semaphores()) {
    counts_.push_back(s.initial);
    binary_.push_back(s.binary);
  }
  for (std::size_t i = 0; i < trace.event_vars().size(); ++i) {
    posted_.set(i, trace.event_vars()[i].initially_posted);
  }
  if (options_.respect_dependences) {
    dep_preds_.resize(trace.num_events());
    for (const auto& [a, b] : trace.dependences()) dep_preds_[b].push_back(a);
  }
  layout_ = search::PackedStateLayout(trace);
  layout_.encode(positions_, posted_, counts_, binary_, packed_);
}

EventId TraceStepper::next_of(ProcId p) const {
  const auto po = trace_->program_order(p);
  return positions_[p] < po.size() ? po[positions_[p]] : kNoEvent;
}

bool TraceStepper::enabled(EventId id) const {
  const Event& e = trace_->event(id);
  if (next_of(e.process) != id) return false;
  // A process's first event needs its creating fork to have executed.
  if (e.index_in_process == 0) {
    const EventId creator = trace_->process(e.process).creating_fork;
    if (creator != kNoEvent && !done_.test(creator)) return false;
  }
  switch (e.kind) {
    case EventKind::kSemP:
      if (counts_[e.object] <= 0) return false;
      break;
    case EventKind::kWait:
      if (!posted_.test(e.object)) return false;
      break;
    case EventKind::kJoin: {
      const auto child_po = trace_->program_order(e.object);
      if (positions_[e.object] < child_po.size()) return false;
      // An empty forked process still requires its fork to have run for
      // the join to make sense; without the fork the child never existed.
      const EventId creator = trace_->process(e.object).creating_fork;
      if (child_po.empty() && creator != kNoEvent && !done_.test(creator)) {
        return false;
      }
      break;
    }
    default:
      break;
  }
  if (options_.respect_dependences) {
    for (EventId pred : dep_preds_[id]) {
      if (!done_.test(pred)) return false;
    }
  }
  return true;
}

void TraceStepper::enabled_events(std::vector<EventId>& out) const {
  out.clear();
  for (ProcId p = 0; p < trace_->num_processes(); ++p) {
    const EventId e = next_of(p);
    if (e != kNoEvent && enabled(e)) out.push_back(e);
  }
}

TraceStepper::Undo TraceStepper::apply(EventId id) {
  EVORD_DCHECK(enabled(id), "apply of disabled event " << id);
  const Event& e = trace_->event(id);
  Undo u;
  u.event = id;
  switch (e.kind) {
    case EventKind::kSemP:
      u.old_count = counts_[e.object];
      --counts_[e.object];
      ++p_executed_[e.object];
      if (binary_[e.object]) {
        // A semaphore op changes the count by one: the parity flips.
        search::PackedStateLayout::toggle_bit(packed_.data(),
                                              layout_.binary_offset(e.object));
      }
      break;
    case EventKind::kSemV:
      u.old_count = counts_[e.object];
      if (!(binary_[e.object] && counts_[e.object] == 1)) {
        ++counts_[e.object];
        if (binary_[e.object]) {
          search::PackedStateLayout::toggle_bit(
              packed_.data(), layout_.binary_offset(e.object));
        }
      }
      break;
    case EventKind::kPost:
      u.old_posted = posted_.test(e.object);
      posted_.set(e.object);
      if (!u.old_posted) {
        search::PackedStateLayout::toggle_bit(packed_.data(),
                                              layout_.posted_offset(e.object));
      }
      break;
    case EventKind::kClear:
      u.old_posted = posted_.test(e.object);
      posted_.reset(e.object);
      if (u.old_posted) {
        search::PackedStateLayout::toggle_bit(packed_.data(),
                                              layout_.posted_offset(e.object));
      }
      break;
    default:
      break;
  }
  ++positions_[e.process];
  layout_.set_position(packed_.data(), e.process, positions_[e.process]);
  done_.set(id);
  ++executed_count_;
  return u;
}

void TraceStepper::undo(const Undo& u) {
  const Event& e = trace_->event(u.event);
  switch (e.kind) {
    case EventKind::kSemP:
    case EventKind::kSemV:
      if (e.kind == EventKind::kSemP) --p_executed_[e.object];
      if (binary_[e.object] && counts_[e.object] != u.old_count) {
        search::PackedStateLayout::toggle_bit(packed_.data(),
                                              layout_.binary_offset(e.object));
      }
      counts_[e.object] = u.old_count;
      break;
    case EventKind::kPost:
    case EventKind::kClear:
      if (posted_.test(e.object) != u.old_posted) {
        search::PackedStateLayout::toggle_bit(packed_.data(),
                                              layout_.posted_offset(e.object));
      }
      posted_.set(e.object, u.old_posted);
      break;
    default:
      break;
  }
  --positions_[e.process];
  layout_.set_position(packed_.data(), e.process, positions_[e.process]);
  done_.reset(u.event);
  --executed_count_;
}

void TraceStepper::encode_key(std::vector<std::uint64_t>& out) const {
  layout_.to_legacy_key(packed_.data(), out);
}

}  // namespace evord
