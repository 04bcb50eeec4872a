// Span recorder for the traced pass of ace_e2e.
//
// Spans are recorded by the benchmark's own wrappers around the library's
// public entry points (optimizer steps, KrigingPolicy::evaluate_batch, the
// BatchSimulator backend, each simulator call, SessionManager calls); the
// library itself is not instrumented. Each thread appends to its own
// buffer, so recording takes no lock after a thread's first span and writes
// nothing while the pass is timed; collect() merges the buffers once every
// recording thread is idle.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ace::e2e {

/// One timed interval at a layer boundary.
struct Span {
  const char* name = "";      ///< String literal, e.g. "policy.evaluate_batch".
  std::uint64_t id = 0;       ///< Unique within one Tracer; never 0.
  std::uint64_t parent = 0;   ///< Enclosing span's id; 0 for a root span.
  std::uint64_t op = 0;       ///< Optimizer run or session the span serves.
  std::uint64_t count = 0;    ///< Work items (configurations, steps).
  std::int64_t start_ns = 0;  ///< steady_clock, nanoseconds.
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;   ///< Recording thread's buffer slot.

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-thread span buffers for one traced pass. A thread registers its own
/// buffer, under a mutex, on its first span; every later span goes to that
/// buffer without a lock. Threads that come and go (the service threads of
/// each SessionManager) each add one buffer, so there is no thread limit.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static std::int64_t now_ns();

  /// Append a finished span from the calling thread.
  void record(Span span);
  /// A fresh span id for the calling thread (ids encode the slot).
  std::uint64_t next_id();
  /// Innermost open ScopedSpan on the calling thread (0 when none).
  std::uint64_t current() const;
  void set_current(std::uint64_t id);

  /// All recorded spans, ordered by start time. Call only while no thread
  /// is recording (after the pool has joined its last batch).
  std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::uint32_t slot = 0;  ///< Registration order; spans' thread field.
    std::vector<Span> spans;
    std::uint64_t next = 0;
    std::uint64_t current = 0;
  };
  /// The calling thread's buffer, registered on first use.
  Buffer& local();
  /// The calling thread's buffer, or nullptr before it has registered.
  const Buffer* find_local() const;

  /// The calling thread's buffer in the Tracer of generation t_generation_
  /// (generations are unique per Tracer, so a stale pointer is never used).
  static thread_local std::uint64_t t_generation_;
  static thread_local Buffer* t_buffer_;

  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;  ///< Grows only; element addresses are stable.
};

/// RAII span: opens at construction and is recorded at destruction. With
/// parent == kAutoParent it nests under the calling thread's innermost open
/// span; an explicit parent links work handed to another thread (a
/// simulation on a pool worker) to the span that dispatched it.
class ScopedSpan {
 public:
  static constexpr std::uint64_t kAutoParent = ~std::uint64_t{0};

  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op,
             std::uint64_t count = 0, std::uint64_t parent = kAutoParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t previous_;
};

/// Nanoseconds of [start, end) not covered by the union of `children`,
/// each clipped to that interval. Overlapping children (simulations running
/// in parallel under one backend call) are counted once, not summed.
std::int64_t self_ns(std::int64_t start, std::int64_t end,
                     std::vector<std::pair<std::int64_t, std::int64_t>> children);

/// Indexes a span set by parent for the per-layer aggregations.
class SpanTree {
 public:
  explicit SpanTree(std::vector<Span> spans);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span called `name`, summed, in seconds.
  double self_seconds(const char* name) const;
  /// Total duration of every span called `name`, in seconds.
  double total_seconds(const char* name) const;
  /// Total duration of the spans called `child` whose parent is called
  /// `parent`, in seconds.
  double child_seconds(const char* parent, const char* child) const;
  /// Durations of every span called `name`, in seconds.
  std::vector<double> durations(const char* name) const;
  std::size_t count(const char* name) const;
  /// Σ Span::count over spans called `name`.
  std::uint64_t items(const char* name) const;
  /// Spans whose parent is missing or that do not lie inside their
  /// parent's interval.
  std::vector<std::string> nesting_violations() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> children_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds), which
/// Perfetto and chrome://tracing open directly.
void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans);

}  // namespace ace::e2e
