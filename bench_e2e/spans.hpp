// In-memory spans for the traced benchmark run.  A span records one call
// the benchmark makes into a layer: name ("<layer>.<call>"), start, end,
// the span that was open around it on the same thread, and the op it
// belongs to.  Spans are kept in memory and written out when the run
// ends; a layer's self time is its spans' duration minus the part their
// child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace evord::bench_e2e {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  struct Span {
    std::string name;
    std::uint64_t op = 0;
    std::size_t parent = kNoParent;
    double start_us = 0.0;  ///< since the recorder was created
    double end_us = 0.0;
  };

  /// Opens a span on construction and closes it on end() or destruction.
  /// A null recorder makes the scope a plain stopwatch.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::uint64_t op)
        : recorder_(recorder), start_(Clock::now()) {
      if (recorder_ != nullptr) index_ = recorder_->open(std::move(name), op);
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in µs.
    double end() {
      if (!ended_) {
        elapsed_us_ = std::chrono::duration<double, std::micro>(
                          Clock::now() - start_)
                          .count();
        if (recorder_ != nullptr) recorder_->close(index_);
        ended_ = true;
      }
      return elapsed_us_;
    }

   private:
    SpanRecorder* recorder_;
    Clock::time_point start_;
    std::size_t index_ = kNoParent;
    bool ended_ = false;
    double elapsed_us_ = 0.0;
  };

  /// Self time per layer (the name up to the first '.'), in µs, over the
  /// spans whose outermost ancestor is named `root`.
  std::map<std::string, double> self_us_by_layer(
      const std::string& root) const {
    std::lock_guard<std::mutex> lock(mu_);
    // A parent opens before its children, so it always has the lower
    // index and one forward pass resolves every span's root.
    std::vector<std::size_t> root_of(spans_.size());
    std::vector<double> child_us(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      root_of[i] = s.parent == kNoParent ? i : root_of[s.parent];
      if (s.parent != kNoParent) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (spans_[root_of[i]].name != root) continue;
      self[s.name.substr(0, s.name.find('.'))] +=
          s.end_us - s.start_us - child_us[i];
    }
    return self;
  }

  /// Summed duration of every span named exactly `name`, in µs.
  double total_us(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end_us - s.start_us;
    }
    return total;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// One JSON object per line.  False on I/O failure.
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"op\": " << s.op << ", \"name\": \""
          << s.name << "\", \"parent\": "
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
          << "}\n";
    }
    return out.good();
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  std::size_t open(std::string name, std::uint64_t op) {
    std::vector<std::size_t>& stack = open_stack();
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = std::move(name);
    span.op = op;
    span.parent = stack.empty() ? kNoParent : stack.back();
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    stack.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    std::vector<std::size_t>& stack = open_stack();
    if (!stack.empty() && stack.back() == index) stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end_us = now_us();
  }

  /// Spans open on the calling thread, innermost last.
  static std::vector<std::size_t>& open_stack() {
    thread_local std::vector<std::size_t> stack;
    return stack;
  }

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace evord::bench_e2e
