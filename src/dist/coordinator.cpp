#include "dist/coordinator.hpp"

#include <algorithm>
#include <utility>

#include "dist/pipe_transport.hpp"
#include "dist/protocol.hpp"

namespace ace::dist {
namespace {

/// Reader threads poll their transport on this tick so a shutdown is
/// observed promptly even if the transport cannot interrupt a block.
constexpr std::chrono::milliseconds kReaderPollTick{250};

/// Upper bound on one event-loop sleep: the loop re-checks liveness at
/// least this often even with no deadline in sight.
constexpr std::chrono::milliseconds kMaxLoopWait{100};

/// Pipelining depth: leases a worker holds open at once.
constexpr std::size_t kInflightPerWorker = 2;

/// Transport attempts per task before it runs on the local simulator.
constexpr std::size_t kMaxDispatches = 3;

/// Expired leases a worker may accumulate before it is recycled.
constexpr std::size_t kStrikeLimit = 3;

}  // namespace

void Coordinator::EventQueue::push(Event event) {
  {
    util::LockGuard lock(mutex_);
    events_.push_back(std::move(event));
  }
  cv_.notify_one();
}

bool Coordinator::EventQueue::pop(Event& event, Clock::time_point deadline) {
  util::UniqueLock lock(mutex_);
  for (;;) {
    if (!events_.empty()) {
      event = std::move(events_.front());
      events_.pop_front();
      return true;
    }
    const auto now = Clock::now();
    if (now >= deadline) return false;
    (void)lock.wait_for(cv_, deadline - now);
  }
}

Coordinator::Coordinator(TransportFactory factory, dse::SimulatorFn local,
                         DistOptions options)
    : factory_(std::move(factory)),
      local_(std::move(local)),
      options_(options) {
  if (!factory_ || options_.workers == 0) degraded_ = true;
  slots_.resize(options_.workers);
}

Coordinator::~Coordinator() {
  for (Slot& slot : slots_) {
    if (slot.transport && slot.alive)
      (void)slot.transport->send_line(encode_quit());
    if (slot.transport) slot.transport->shutdown();
    if (slot.reader.joinable()) slot.reader.join();
    slot.transport.reset();
  }
}

std::size_t Coordinator::healthy_workers() const {
  std::size_t healthy = 0;
  for (const Slot& slot : slots_)
    if (slot.alive && slot.ready) ++healthy;
  return healthy;
}

void Coordinator::await_handshakes(std::chrono::milliseconds timeout) {
  const Clock::time_point until = Clock::now() + timeout;
  // No batch is open, so no lease can resolve into a task here.
  std::vector<Task> no_tasks;
  const auto handshaking = [this] {
    return std::any_of(slots_.begin(), slots_.end(), [](const Slot& slot) {
      return slot.alive && !slot.ready;
    });
  };
  Event event;
  while (handshaking() && events_.pop(event, until))
    handle_event(event, no_tasks, Clock::now());
}

bool Coordinator::can_spawn() const {
  return stats_.respawns < options_.respawn_budget;
}

bool Coordinator::any_usable_worker() const {
  if (!factory_) return false;
  for (const Slot& slot : slots_) {
    if (slot.alive) return true;
    if (!slot.ever_spawned || can_spawn()) return true;
  }
  return false;
}

void Coordinator::spawn_slot(std::size_t index, Clock::time_point now) {
  Slot& slot = slots_[index];
  // The previous incarnation's reader is joined by mark_dead(); destroying
  // the old transport here reaps a subprocess child.
  slot.transport.reset();
  ++slot.incarnation;
  slot.alive = false;
  slot.ready = false;
  slot.strikes = 0;
  slot.leases.clear();
  try {
    slot.transport = factory_();
  } catch (const std::exception&) {
    ++stats_.spawn_failures;
    slot.transport.reset();
    return;
  }
  if (!slot.transport ||
      !slot.transport->send_line(encode_hello(options_.retry))) {
    ++stats_.spawn_failures;
    if (slot.transport) slot.transport->shutdown();
    return;
  }
  slot.alive = true;
  slot.handshake_deadline = now + options_.handshake_ms;
  Transport* transport = slot.transport.get();
  const std::uint64_t incarnation = slot.incarnation;
  slot.reader = std::thread([this, transport, incarnation, index] {
    std::string line;
    for (;;) {
      switch (transport->recv_line(line, kReaderPollTick)) {
        case Transport::Recv::kLine:
          events_.push(Event{index, incarnation, false, std::move(line)});
          line.clear();
          break;
        case Transport::Recv::kEof:
          events_.push(Event{index, incarnation, true, {}});
          return;
        case Transport::Recv::kTimeout:
          break;
      }
    }
  });
}

void Coordinator::ensure_workers(Clock::time_point now) {
  if (!factory_) return;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.alive) continue;
    if (slot.ever_spawned) {
      // A respawn (as opposed to the initial spawn) draws on the budget,
      // which is what bounds re-dispatch churn under a persistent fault.
      if (!can_spawn()) continue;
      ++stats_.respawns;
    }
    slot.ever_spawned = true;
    spawn_slot(i, now);
  }
}

void Coordinator::release_lease(std::uint64_t id, std::vector<Task>& tasks,
                                dse::FaultCode reason) {
  const auto it = open_leases_.find(id);
  if (it == open_leases_.end()) return;
  const Lease lease = it->second;
  open_leases_.erase(it);
  Task& task = tasks[lease.task];
  if (!lease.expired && task.open_leases > 0) --task.open_leases;
  if (!task.done) ++stats_.redispatch_reasons[reason];
}

void Coordinator::mark_dead(std::size_t index, dse::FaultCode reason,
                            std::vector<Task>& tasks) {
  Slot& slot = slots_[index];
  if (!slot.alive) return;
  slot.alive = false;
  slot.ready = false;
  slot.transport->shutdown();
  if (slot.reader.joinable()) slot.reader.join();
  const std::vector<std::uint64_t> leases = std::move(slot.leases);
  slot.leases.clear();
  for (const std::uint64_t id : leases) release_lease(id, tasks, reason);
}

void Coordinator::recycle(std::size_t index, dse::FaultCode reason,
                          std::vector<Task>& tasks, Clock::time_point now) {
  mark_dead(index, reason, tasks);
  if (can_spawn()) {
    ++stats_.respawns;
    spawn_slot(index, now);
  }
}

void Coordinator::finish_task(Task& task, const util::GuardedCall& call) {
  task.done = true;
  task.result = call;
  if (pending_ > 0) --pending_;
  // Terminal simulator faults quarantine by config: the outcome is real
  // (it merges into the policy as-is), but this config is never shipped
  // to a worker again — later batches replay the recorded call.
  if (!call.ok()) quarantine_[task.config] = call;
}

void Coordinator::run_local(Task& task) {
  ++stats_.local_fallbacks;
  const dse::Config& config = task.config;
  finish_task(task,
              util::call_with_retry(options_.retry, task.key,
                                    [this, &config] { return local_(config); }));
}

void Coordinator::dispatch_ready(std::vector<Task>& tasks,
                                 Clock::time_point now) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Task& task = tasks[i];
    if (task.done || task.open_leases > 0) continue;
    if (task.dispatches >= kMaxDispatches) {
      // Dispatch budget exhausted: the decision-identity invariant says a
      // transport failure must never fault a task, so it runs here.
      run_local(task);
      continue;
    }
    for (;;) {
      std::size_t best = slots_.size();
      // Prefer unstruck workers, then the least-loaded one: a straggler
      // whose capacity was revoked looks idle but should be the last
      // resort, not the first pick.
      std::pair<std::size_t, std::size_t> best_rank{static_cast<std::size_t>(-1),
                                                    static_cast<std::size_t>(-1)};
      for (std::size_t j = 0; j < slots_.size(); ++j) {
        const Slot& slot = slots_[j];
        if (!slot.alive || !slot.ready) continue;
        if (slot.leases.size() >= kInflightPerWorker) continue;
        const std::pair<std::size_t, std::size_t> rank{slot.strikes,
                                                       slot.leases.size()};
        if (rank < best_rank) {
          best_rank = rank;
          best = j;
        }
      }
      if (best == slots_.size()) return;  // No capacity anywhere right now.
      Slot& slot = slots_[best];
      const std::uint64_t id = next_lease_id_++;
      if (!slot.transport->send_line(encode_task(id, task.config))) {
        ++stats_.worker_deaths;
        mark_dead(best, dse::FaultCode::kWorkerLost, tasks);
        continue;  // Try the next-best worker for the same task.
      }
      bool steal = false;
      for (const auto& [other_id, other] : open_leases_) {
        if (other.task == i && other.expired && slots_[other.slot].alive) {
          steal = true;
          break;
        }
      }
      if (steal) ++stats_.steals;
      open_leases_.emplace(
          id, Lease{i, best, slot.incarnation, now + options_.lease_ms, false});
      slot.leases.push_back(id);
      ++task.open_leases;
      ++task.dispatches;
      ++stats_.dispatches;
      if (task.dispatches > 1) ++stats_.redispatches;
      break;
    }
  }
}

void Coordinator::expire_deadlines(std::vector<Task>& tasks,
                                   Clock::time_point now) {
  std::vector<std::size_t> to_recycle;
  for (auto& [id, lease] : open_leases_) {
    if (lease.expired || now < lease.deadline) continue;
    // The lease expired but stays open: the straggler's late reply is
    // still acceptable (first result wins). The task becomes
    // re-dispatchable, the worker earns a strike, and its capacity slot
    // is revoked — otherwise a fleet of stalled workers would pin every
    // slot on expired leases and dispatch would starve.
    lease.expired = true;
    ++stats_.lease_expiries;
    Task& task = tasks[lease.task];
    if (task.open_leases > 0) --task.open_leases;
    if (!task.done)
      ++stats_.redispatch_reasons[dse::FaultCode::kLeaseExpired];
    Slot& slot = slots_[lease.slot];
    const auto pos = std::find(slot.leases.begin(), slot.leases.end(), id);
    if (pos != slot.leases.end()) slot.leases.erase(pos);
    if (slot.alive && ++slot.strikes >= kStrikeLimit)
      to_recycle.push_back(lease.slot);
  }
  std::sort(to_recycle.begin(), to_recycle.end());
  to_recycle.erase(std::unique(to_recycle.begin(), to_recycle.end()),
                   to_recycle.end());
  for (const std::size_t index : to_recycle)
    recycle(index, dse::FaultCode::kLeaseExpired, tasks, now);

  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.alive && !slot.ready && now >= slot.handshake_deadline)
      recycle(i, dse::FaultCode::kWorkerLost, tasks, now);
  }
}

void Coordinator::handle_event(const Event& event, std::vector<Task>& tasks,
                               Clock::time_point now) {
  if (event.slot >= slots_.size()) return;
  Slot& slot = slots_[event.slot];
  if (event.incarnation != slot.incarnation || !slot.alive) return;  // Stale.
  if (event.eof) {
    ++stats_.worker_deaths;
    mark_dead(event.slot, dse::FaultCode::kWorkerLost, tasks);
    return;
  }
  WireMessage msg;
  try {
    msg = parse_message(decode_frame(event.line));
  } catch (const dse::PayloadError& error) {
    // A frame that fails its checksum poisons the whole stream (a torn
    // write desynchronises every later line): kill and respawn.
    if (error.code() == dse::FaultCode::kTruncatedPayload)
      ++stats_.truncated_frames;
    else
      ++stats_.corrupt_frames;
    recycle(event.slot, error.code(), tasks, now);
    return;
  }
  switch (msg.type) {
    case MsgType::kReady:
      slot.ready = true;
      slot.strikes = 0;
      return;
    case MsgType::kPong:
      slot.strikes = 0;
      return;
    case MsgType::kErr:
      ++stats_.worker_errors;
      recycle(event.slot, dse::FaultCode::kCorruptPayload, tasks, now);
      return;
    case MsgType::kOutcome:
      break;
    default:
      ++stats_.corrupt_frames;
      recycle(event.slot, dse::FaultCode::kCorruptPayload, tasks, now);
      return;
  }

  slot.strikes = 0;  // It answered; it is no longer a straggler.
  const auto it = open_leases_.find(msg.id);
  if (it == open_leases_.end()) {
    ++stats_.stale_results;  // Lease already resolved (or prior batch).
    return;
  }
  const Lease lease = it->second;
  open_leases_.erase(it);
  Slot& owner = slots_[lease.slot];
  const auto pos = std::find(owner.leases.begin(), owner.leases.end(), msg.id);
  if (pos != owner.leases.end()) owner.leases.erase(pos);
  Task& task = tasks[lease.task];
  if (!lease.expired && task.open_leases > 0) --task.open_leases;
  if (task.done) {
    // A steal raced the original and both finished. The replies are
    // bit-identical by construction, so dropping the loser is safe.
    ++stats_.duplicate_results;
    return;
  }
  finish_task(task, msg.call);
}

Coordinator::Clock::time_point Coordinator::next_deadline(
    Clock::time_point now) const {
  Clock::time_point deadline = now + kMaxLoopWait;
  for (const auto& [id, lease] : open_leases_)
    if (!lease.expired) deadline = std::min(deadline, lease.deadline);
  for (const Slot& slot : slots_)
    if (slot.alive && !slot.ready)
      deadline = std::min(deadline, slot.handshake_deadline);
  return std::max(deadline, now + std::chrono::milliseconds(1));
}

std::vector<util::GuardedCall> Coordinator::simulate_many(
    const std::vector<dse::Config>& configs) {
  stats_.tasks += configs.size();
  std::vector<Task> tasks(configs.size());
  pending_ = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Task& task = tasks[i];
    task.config = configs[i];
    task.key = dse::ConfigHash{}(configs[i]);
    const auto hit = quarantine_.find(task.config);
    if (hit != quarantine_.end()) {
      task.done = true;
      task.result = hit->second;
      ++stats_.quarantine_hits;
    } else {
      ++pending_;
    }
  }

  if (pending_ > 0 && !degraded_) {
    ensure_workers(Clock::now());
    while (pending_ > 0) {
      const auto now = Clock::now();
      expire_deadlines(tasks, now);
      ensure_workers(now);
      if (!any_usable_worker()) {
        // Respawn budget exhausted with nobody left: degrade for good.
        degraded_ = true;
        ++stats_.degraded_batches;
        break;
      }
      dispatch_ready(tasks, now);
      if (pending_ == 0) break;
      Event event;
      if (events_.pop(event, next_deadline(Clock::now()))) {
        handle_event(event, tasks, Clock::now());
        // Drain whatever else is already queued before sleeping again.
        while (pending_ > 0 && events_.pop(event, Clock::now()))
          handle_event(event, tasks, Clock::now());
      }
    }
  }

  // Degraded (from the start or mid-batch): everything left runs locally,
  // in index order — the merge stays deterministic by construction.
  for (Task& task : tasks)
    if (!task.done) run_local(task);

  std::vector<util::GuardedCall> results;
  results.reserve(tasks.size());
  for (Task& task : tasks) results.push_back(std::move(task.result));
  open_leases_.clear();  // Late stragglers next batch count as stale.
  for (Slot& slot : slots_) slot.leases.clear();
  return results;
}

std::unique_ptr<Coordinator> make_subprocess_coordinator(
    const std::string& worker_binary, const std::string& kernel,
    dse::SimulatorFn local, const DistOptions& options) {
  std::vector<std::string> argv{worker_binary, "--kernel", kernel};
  Coordinator::TransportFactory factory =
      [argv = std::move(argv)]() -> std::unique_ptr<Transport> {
    return PipeTransport::spawn(argv);
  };
  return std::make_unique<Coordinator>(std::move(factory), std::move(local),
                                       options);
}

}  // namespace ace::dist
