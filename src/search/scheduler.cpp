#include "search/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "search/engine.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace evord::search {

namespace {

/// Heap footprint of a task descriptor (charged while it sits queued).
std::uint64_t task_bytes(const SearchTask& task) {
  return sizeof(SearchTask) + task.seed.size() * sizeof(EventId) +
         task.sleep.size() * sizeof(EventId);
}

/// Chase–Lev work-stealing deque of SearchTask*.  The owner pushes and
/// pops at the bottom (LIFO, so it keeps working near its current
/// frontier); thieves CAS the top (FIFO, so they take the largest,
/// oldest subtrees).  This is the classic lock-free algorithm; all
/// ordering-critical accesses use seq_cst operations on the indices
/// rather than standalone fences (equivalent ordering, and
/// ThreadSanitizer models atomics but not fences).  Grown buffers are
/// retired, not freed, until destruction: a thief may still be reading
/// a slot of the old buffer after the owner swaps in a bigger one.
class TaskDeque {
 public:
  TaskDeque() : buffer_(new Buffer(kInitialCapacity)) {
    retired_.emplace_back(buffer_.load(std::memory_order_relaxed));
  }

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  ~TaskDeque() {
    // Single-threaded by now (workers joined); drop any undrained tasks.
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    for (std::int64_t i = t; i < b; ++i) delete buf->get(i);
  }

  /// Owner only.
  void push(SearchTask* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(buf->capacity) - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, task);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only; nullptr when empty.
  SearchTask* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    SearchTask* task = nullptr;
    if (t <= b) {
      task = buf->get(b);
      if (t == b) {
        // Last element: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          task = nullptr;  // a thief got it
        }
        bottom_.store(b + 1, std::memory_order_seq_cst);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return task;
  }

  /// Any thread; nullptr when empty or when the CAS race was lost.
  SearchTask* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    SearchTask* task = buf->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; the caller may retry elsewhere
    }
    return task;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(std::make_unique<std::atomic<SearchTask*>[]>(cap)) {}
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<SearchTask*>[]> slots;

    SearchTask* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, SearchTask* task) {
      slots[static_cast<std::size_t>(i) & mask].store(
          task, std::memory_order_relaxed);
    }
  };

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<Buffer>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    Buffer* raw = bigger.get();
    retired_.emplace_back(std::move(bigger));
    buffer_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  /// Owner-only (grow is called from push); keeps every buffer alive for
  /// the deque's lifetime so in-flight thief reads stay valid.
  std::vector<std::unique_ptr<Buffer>> retired_;
};

}  // namespace

class WorkStealingScheduler {
 public:
  WorkStealingScheduler(std::size_t num_workers, std::uint64_t steal_seed,
                        SharedContext& ctx, const TaskRunner& run)
      : ctx_(&ctx),
        run_(&run),
        num_workers_(num_workers),
        steal_seed_(steal_seed) {}

  SearchStats execute() {
    // The root task runs here, as worker 0.  Nothing below is allocated
    // unless its walk grows the sweep (grow(), from split_wanted()).
    WorkerHandle root(this, 0, &hungry_,
                      num_workers_ > 1 ? kGrowAfterEntries : 0);
    outstanding_.store(1, std::memory_order_relaxed);
    run_task(SearchTask{}, root);
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    if (!workers_.empty()) {
      ++workers_[0]->stats.tasks_executed;
      // Help drain what the root walk donated, then join the helpers.
      worker_main(0);
      for (std::thread& t : threads_) t.join();
      total_.workers.resize(workers_.size());
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        total_.workers[i] = workers_[i]->stats;
      }
    }
    if (first_error_) std::rethrow_exception(first_error_);
    return std::move(total_);
  }

  /// Starts the helpers; called once, by worker 0's handle.  Every
  /// worker exists before the first helper starts, so thieves never see
  /// the worker table change.
  void grow() {
    workers_.reserve(num_workers_);
    for (std::size_t i = 0; i < num_workers_; ++i) {
      // splitmix-style decorrelation so nearby worker ids probe
      // different victim sequences even with steal_seed == 0.
      workers_.push_back(std::make_unique<Worker>(
          steal_seed_ ^ (0x9e3779b97f4a7c15ull * (i + 1))));
    }
    threads_.reserve(num_workers_ - 1);
    for (std::size_t i = 1; i < num_workers_; ++i) {
      threads_.emplace_back([this, i] { worker_main(i); });
    }
  }

  void spawn(std::size_t worker_id, SearchTask task) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    ++workers_[worker_id]->stats.tasks_spawned;
    // Donated tasks are real allocations a budgeted search must answer
    // for: charge while queued, released when the task is consumed.
    ctx_->memory.charge(task_bytes(task));
    workers_[worker_id]->deque.push(new SearchTask(std::move(task)));
  }

 private:
  struct Worker {
    explicit Worker(std::uint64_t rng_seed) : rng(rng_seed) {}
    TaskDeque deque;
    Rng rng;
    WorkerStats stats;
  };

  void worker_main(std::size_t id) {
    Worker& self = *workers_[id];
    WorkerHandle handle(this, id, &hungry_, 0);
    bool hungry = false;
    std::chrono::steady_clock::time_point idle_since;
    const auto stop_hunger = [&] {
      if (!hungry) return;
      hungry = false;
      hungry_.fetch_sub(1, std::memory_order_relaxed);
      self.stats.idle_nanos += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - idle_since)
              .count());
    };
    for (;;) {
      bool stolen = false;
      SearchTask* task = self.deque.pop();
      if (task == nullptr) task = steal_task(self, id, &stolen);
      if (task != nullptr) {
        stop_hunger();
        ++self.stats.tasks_executed;
        if (stolen) ++self.stats.tasks_stolen;
        {
          const std::unique_ptr<SearchTask> owned(task);
          ctx_->memory.release(task_bytes(*owned));
          run_task(*owned, handle);
        }
        // Decrement last: a running task may spawn, so outstanding_
        // can only hit zero once no spawner is left.
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      if (!hungry) {
        hungry = true;
        hungry_.fetch_add(1, std::memory_order_relaxed);
        idle_since = std::chrono::steady_clock::now();
      }
      if (outstanding_.load(std::memory_order_acquire) == 0) break;
      std::this_thread::yield();
    }
    stop_hunger();
  }

  void run_task(const SearchTask& task, WorkerHandle& handle) {
    if (abort_.load(std::memory_order_acquire)) return;  // drain only
    try {
      const SearchStats stats = (*run_)(task, handle);
      std::lock_guard<std::mutex> lock(merge_mu_);
      total_.merge(stats);
    } catch (...) {
      abort_.store(true, std::memory_order_release);
      ctx_->request_stop(StopReason::kVisitor);
      std::lock_guard<std::mutex> lock(merge_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }

  SearchTask* steal_task(Worker& self, std::size_t id, bool* stolen) {
    const std::size_t n = workers_.size();
    if (n <= 1) return nullptr;
    if (fault::enabled() &&
        fault::on_steal_attempt(id) == fault::StealAction::kPoison) {
      // Injected steal failure: this worker's probe round reports empty.
      // Every queued task is still consumed by its owner's LIFO pop, so
      // the search completes with identical results.
      return nullptr;
    }
    // One round of seeded-random victim probes; the outer loop retries
    // until global termination, so one pass per wakeup is enough.
    for (std::size_t attempt = 0; attempt + 1 < 2 * n; ++attempt) {
      const std::size_t victim = static_cast<std::size_t>(self.rng.below(n));
      if (victim == id) continue;
      ++self.stats.steal_attempts;
      SearchTask* task = workers_[victim]->deque.steal();
      if (task != nullptr) {
        *stolen = true;
        return task;
      }
    }
    return nullptr;
  }

  SharedContext* ctx_;
  const TaskRunner* run_;
  std::size_t num_workers_;
  std::uint64_t steal_seed_;
  /// Empty until the sweep grows; then one entry per worker.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<std::uint32_t> hungry_{0};
  std::atomic<bool> abort_{false};
  std::mutex merge_mu_;
  SearchStats total_;
  std::exception_ptr first_error_;
  /// The helpers (workers 1..n-1), last so they are declared after every
  /// member they use; execute() joins them.
  std::vector<std::thread> threads_;
};

void WorkerHandle::grow() { sched_->grow(); }

void WorkerHandle::spawn(SearchTask task) {
  sched_->spawn(id_, std::move(task));
}

SearchStats run_work_stealing(std::size_t num_workers,
                              std::uint64_t steal_seed, SharedContext& ctx,
                              const TaskRunner& run) {
  WorkStealingScheduler scheduler(std::max<std::size_t>(num_workers, 1),
                                  steal_seed, ctx, run);
  return scheduler.execute();
}

std::size_t max_worker_threads() {
  static const std::size_t cap = [] {
    std::size_t limit = std::thread::hardware_concurrency();
    if (limit == 0) limit = 1;
    if (const char* env = std::getenv("EVORD_MAX_THREADS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && parsed > 0) limit = static_cast<std::size_t>(parsed);
    }
    return limit;
  }();
  return cap;
}

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  return std::min(requested, max_worker_threads());
}

}  // namespace evord::search
