#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <ostream>
#include <unordered_map>

namespace ace::e2e {

namespace {

std::atomic<std::uint64_t> g_generation{0};

constexpr int kSlotShift = 40;

}  // namespace

thread_local std::uint64_t Tracer::t_generation_ = 0;
thread_local Tracer::Buffer* Tracer::t_buffer_ = nullptr;

Tracer::Tracer()
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer& Tracer::local() {
  if (t_generation_ != generation_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Buffer& buffer = buffers_.emplace_back();
    buffer.slot = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer.spans.reserve(1 << 14);
    t_generation_ = generation_;
    t_buffer_ = &buffer;
  }
  return *t_buffer_;
}

const Tracer::Buffer* Tracer::find_local() const {
  return t_generation_ == generation_ ? t_buffer_ : nullptr;
}

void Tracer::record(Span span) {
  Buffer& buffer = local();
  span.thread = buffer.slot;
  buffer.spans.push_back(span);
}

std::uint64_t Tracer::next_id() {
  Buffer& buffer = local();
  return (std::uint64_t{buffer.slot} + 1) << kSlotShift | ++buffer.next;
}

std::uint64_t Tracer::current() const {
  const Buffer* buffer = find_local();
  return buffer == nullptr ? 0 : buffer->current;
}

void Tracer::set_current(std::uint64_t id) { local().current = id; }

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Buffer& buffer : buffers_)
    all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op,
                       std::uint64_t count, std::uint64_t parent)
    : tracer_(tracer), previous_(tracer.current()) {
  span_.name = name;
  span_.op = op;
  span_.count = count;
  span_.parent = parent == kAutoParent ? previous_ : parent;
  span_.id = tracer_.next_id();
  tracer_.set_current(span_.id);
  span_.start_ns = Tracer::now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = Tracer::now_ns();
  tracer_.set_current(previous_);
  tracer_.record(span_);
}

std::int64_t self_ns(std::int64_t start, std::int64_t end,
                     std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  for (auto& [lo, hi] : children) {
    lo = std::max(lo, start);
    hi = std::min(hi, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : children) {
    if (hi <= lo) continue;
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (end - start) - covered;
}

SpanTree::SpanTree(std::vector<Span> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) index.emplace(spans_[i].id, i);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto it = index.find(spans_[i].parent);
    if (spans_[i].parent != 0 && it != index.end())
      children_[it->second].push_back(i);
  }
}

double SpanTree::self_seconds(const char* name) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    kids.reserve(children_[i].size());
    for (const std::size_t c : children_[i])
      kids.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
    total += self_ns(spans_[i].start_ns, spans_[i].end_ns, std::move(kids));
  }
  return static_cast<double>(total) * 1e-9;
}

double SpanTree::total_seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) total += s.seconds();
  return total;
}

double SpanTree::child_seconds(const char* parent, const char* child) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, parent) != 0) continue;
    for (const std::size_t c : children_[i])
      if (std::strcmp(spans_[c].name, child) == 0) total += spans_[c].seconds();
  }
  return total;
}

std::vector<double> SpanTree::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  return out;
}

std::size_t SpanTree::count(const char* name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
        return std::strcmp(s.name, name) == 0;
      }));
}

std::uint64_t SpanTree::items(const char* name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) total += s.count;
  return total;
}

std::vector<std::string> SpanTree::nesting_violations() const {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) index.emplace(spans_[i].id, i);
  std::vector<std::string> out;
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) {
      out.push_back(std::string(s.name) + " span has no recorded parent");
      continue;
    }
    const Span& p = spans_[it->second];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
      out.push_back(std::string(s.name) + " span lies outside its parent " +
                    p.name);
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const auto micros = [](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-3;
  };
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"cat\":\"ace\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << micros(s.start_ns - origin)
       << ",\"dur\":" << micros(s.end_ns - s.start_ns)
       << ",\"args\":{\"op\":" << s.op << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"count\":" << s.count << "}}";
  }
  os << "\n]}\n";
}

}  // namespace ace::e2e
