#include "dse/fault_injection.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ace::dse {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}
}  // namespace

struct FaultInjectingSimulator::State {
  SimulatorFn inner;
  FaultInjectionOptions options;

  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> throws{0};
  std::atomic<std::size_t> nans{0};
  std::atomic<std::size_t> latency{0};

  // Per-configuration faulted-call counts for the transient-recovery
  // model. Guarded: pool workers call concurrently. Ranked innermost: a
  // batch's caller runs tasks while holding the policy mutex, and those
  // tasks land here; no pool lock is held across a task.
  util::Mutex mutex{util::lock_order::Rank::kFaultInjection,
                    "dse.fault_injection"};
  std::unordered_map<Config, std::size_t, ConfigHash> fault_calls
      ACE_GUARDED_BY(mutex);
};

FaultInjectingSimulator::FaultInjectingSimulator(SimulatorFn inner,
                                                FaultInjectionOptions options)
    : state_(std::make_shared<State>()) {
  state_->inner = std::move(inner);
  state_->options = std::move(options);
}

FaultInjectingSimulator::Kind FaultInjectingSimulator::scheduled_fault(
    const Config& config) const {
  const FaultInjectionOptions& o = state_->options;
  for (const Config& target : o.always_fault)
    if (target == config) return Kind::kThrow;
  const double u =
      unit_uniform(splitmix64(o.seed ^ ConfigHash{}(config)));
  double p = o.throw_probability;
  if (u < p) return Kind::kThrow;
  p += o.nan_probability;
  if (u < p) return Kind::kNan;
  p += o.latency_probability;
  if (u < p) return Kind::kLatency;
  return Kind::kNone;
}

double FaultInjectingSimulator::operator()(const Config& config) const {
  State& s = *state_;
  s.calls.fetch_add(1, std::memory_order_relaxed);

  Kind kind = scheduled_fault(config);
  if (kind != Kind::kNone) {
    bool persistent = false;
    for (const Config& target : s.options.always_fault)
      if (target == config) persistent = true;
    if (!persistent) {
      std::size_t faulted_so_far;
      {
        const util::LockGuard lock(s.mutex);
        faulted_so_far = s.fault_calls[config]++;
      }
      // Transient fault already exhausted: the configuration recovered.
      if (faulted_so_far >= s.options.faulty_calls) kind = Kind::kNone;
    }
  }

  switch (kind) {
    case Kind::kThrow:
      s.throws.fetch_add(1, std::memory_order_relaxed);
      throw SimulatorFault("injected simulator fault at " + to_string(config));
    case Kind::kNan:
      s.nans.fetch_add(1, std::memory_order_relaxed);
      return std::numeric_limits<double>::quiet_NaN();
    case Kind::kLatency:
      s.latency.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(s.options.latency_ms));
      return s.inner(config);
    case Kind::kNone:
      break;
  }
  return s.inner(config);
}

std::size_t FaultInjectingSimulator::calls() const {
  return state_->calls.load(std::memory_order_relaxed);
}
std::size_t FaultInjectingSimulator::injected_throws() const {
  return state_->throws.load(std::memory_order_relaxed);
}
std::size_t FaultInjectingSimulator::injected_nans() const {
  return state_->nans.load(std::memory_order_relaxed);
}
std::size_t FaultInjectingSimulator::injected_latency_spikes() const {
  return state_->latency.load(std::memory_order_relaxed);
}

}  // namespace ace::dse
