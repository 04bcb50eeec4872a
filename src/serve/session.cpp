#include "serve/session.hpp"

#include <stdexcept>
#include <utility>
#include <variant>

#include "dse/checkpoint.hpp"
#include "dse/scheduler.hpp"

namespace ace::serve {

namespace {

/// The evaluator a finished session's steps run against: a finished
/// cursor's step returns before evaluating, so this is never called.
std::vector<double> no_policy(const std::vector<dse::Config>&) {
  throw std::logic_error("SessionManager: finished session evaluated");
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(options) {
  if (options_.service_threads == 0) options_.service_threads = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.resident_capacity == 0) options_.resident_capacity = 1;
  threads_.reserve(options_.service_threads);
  for (std::size_t i = 0; i < options_.service_threads; ++i)
    threads_.emplace_back([this] { service_loop(); });
}

SessionManager::~SessionManager() {
  {
    const util::LockGuard lock(mutex_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

SessionId SessionManager::create(SessionSpec spec) {
  if (!spec.simulate)
    throw std::invalid_argument("SessionManager: spec.simulate is null");
  // Cursor construction validates the optimizer options up front, so a
  // bad spec fails at create() rather than inside a service thread.
  dse::OptimizerCursor cursor = dse::make_optimizer_cursor(
      spec.optimizer, spec.min_plus, spec.sensitivity);

  const util::LockGuard lock(mutex_);
  const SessionId id = ++next_id_;
  auto session = std::make_unique<Session>();
  session->id = id;
  session->spec = std::move(spec);
  session->cursor = std::move(cursor);
  sessions_.emplace(id, std::move(session));
  ++stats_.sessions_created;
  return id;
}

SessionManager::Session& SessionManager::session_locked(SessionId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("SessionManager: unknown session id");
  return *it->second;
}

Ticket SessionManager::submit(SessionId id, std::size_t steps) {
  util::UniqueLock lock(mutex_);
  Session& s = session_locked(id);
  bool waited = false;
  while (pending_total_ >= options_.queue_capacity && !stopping_) {
    waited = true;
    lock.wait(space_cv_);
  }
  if (stopping_)
    throw std::runtime_error("SessionManager: submit after shutdown");
  if (waited) ++stats_.backpressure_waits;

  Request request;
  request.ticket = ++next_ticket_;
  request.steps = steps;
  request.submitted_ms = watch_.milliseconds();
  s.pending.push_back(request);
  ++pending_total_;
  ++stats_.requests;
  outstanding_.insert(request.ticket);
  if (!s.in_service && !s.queued) {
    s.queued = true;
    ready_.push_back(s.id);
    ready_cv_.notify_one();
  }
  return request.ticket;
}

void SessionManager::wait(Ticket ticket) {
  util::UniqueLock lock(mutex_);
  while (outstanding_.count(ticket) != 0) lock.wait(done_cv_);
}

void SessionManager::drain() {
  util::UniqueLock lock(mutex_);
  while (pending_total_ > 0 || in_service_count_ > 0) lock.wait(done_cv_);
}

void SessionManager::park(SessionId id) {
  util::UniqueLock lock(mutex_);
  Session& s = session_locked(id);
  while (s.in_service || !s.pending.empty()) lock.wait(done_cv_);
  if (s.policy) park_locked(s);
}

void SessionManager::park_locked(Session& s) {
  dse::Checkpoint& checkpoint = s.parked.emplace();
  // snapshot() without record_checkpoint(): parking is a residency
  // decision, not a durability event, so the policy's statistics stay
  // bit-identical to a standalone run that never parked.
  checkpoint.policy = s.policy->snapshot();
  checkpoint.cursor = s.cursor;
  s.policy.reset();
  --resident_;
  ++stats_.parks;
}

void SessionManager::park_victims_locked(const Session* keep) {
  while (resident_ > options_.resident_capacity) {
    Session* victim = nullptr;
    for (auto& [id, session] : sessions_) {
      Session& s = *session;
      if (!s.policy || s.in_service || s.queued || !s.pending.empty())
        continue;
      if (&s == keep) continue;
      if (victim == nullptr || s.last_touch < victim->last_touch) victim = &s;
    }
    if (victim == nullptr) return;  // Everything live is busy: defer.
    park_locked(*victim);
  }
}

void SessionManager::service_loop() {
  util::UniqueLock lock(mutex_);
  for (;;) {
    while (!stopping_ && ready_.empty()) lock.wait(ready_cv_);
    if (stopping_) return;
    const SessionId id = ready_.front();
    ready_.pop_front();
    Session& s = *sessions_.at(id);
    s.queued = false;
    s.in_service = true;
    ++in_service_count_;
    const Request request = s.pending.front();
    s.pending.pop_front();
    --pending_total_;
    space_cv_.notify_all();

    // A finished cursor never evaluates again, so its request runs without
    // a policy. Otherwise build or resume the policy, and make room by
    // parking idle LRU victims. The restore replay runs OUTSIDE the
    // manager lock: a slow resume must not stall submits and steps for
    // every other session. The resident slot is reserved up front so
    // concurrent residency enforcement counts this session; in_service
    // keeps every other thread away from its cursor and policy slot, and
    // spec is immutable after create(), so the off-lock reads are
    // race-free.
    const bool resume = !s.finished() && !s.policy;
    std::optional<dse::Checkpoint> parked;
    if (resume) {
      ++resident_;
      parked = std::exchange(s.parked, std::nullopt);
    }
    park_victims_locked(&s);
    s.last_touch = ++clock_;
    if (resume) {
      lock.unlock();
      auto policy = std::make_unique<dse::KrigingPolicy>(s.spec.policy);
      // Replay is bit-exact: the rebuilt store, variogram and model are
      // exactly the snapshotted policy's (checkpoint.hpp contract).
      if (parked) policy->restore(parked->policy);

      lock.lock();
      s.policy = std::move(policy);
      if (parked) ++stats_.resumes;
    }

    // The cursor is stepped on a local copy outside the lock; the session
    // is flagged in_service, so no other thread touches its state (parking
    // skips in-service sessions, a second service thread cannot pop it —
    // it is not in ready_ while in_service).
    dse::KrigingPolicy* policy = s.policy.get();
    const SessionSpec& spec = s.spec;
    dse::OptimizerCursor cursor = s.cursor;
    lock.unlock();

    dse::BatchEvaluateFn evaluate = no_policy;
    if (policy != nullptr)
      evaluate =
          dse::policy_batch_evaluator(*policy, spec.simulate, options_.pool);
    std::size_t executed = 0;
    for (std::size_t i = 0; i < request.steps; ++i) {
      const bool more = dse::optimizer_step(evaluate, spec.min_plus,
                                            spec.sensitivity, cursor);
      ++executed;
      if (!more) break;
    }
    // last_stats is written only by the thread holding the session in
    // service, so reading it here is race-free.
    const dse::PolicyStats policy_stats =
        policy != nullptr ? policy->stats() : s.last_stats;

    lock.lock();
    s.cursor = std::move(cursor);
    s.last_stats = policy_stats;
    // The slice finished the cursor: release the policy outright. There
    // is nothing to park — no later request can evaluate through it.
    if (s.policy && s.finished()) {
      s.policy.reset();
      --resident_;
    }
    s.executed_steps += executed;
    stats_.steps += executed;
    s.in_service = false;
    --in_service_count_;
    s.last_touch = ++clock_;
    latencies_ms_.push_back(watch_.milliseconds() - request.submitted_ms);
    outstanding_.erase(request.ticket);
    if (!s.pending.empty() && !s.queued) {
      s.queued = true;
      ready_.push_back(s.id);
      ready_cv_.notify_one();
    }
    done_cv_.notify_all();
  }
}

SessionProgress SessionManager::progress(SessionId id) const {
  const util::LockGuard lock(mutex_);
  SessionProgress out;
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return out;
  const Session& s = *it->second;
  out.exists = true;
  out.resident = s.policy != nullptr;
  out.finished = s.finished();
  out.steps = s.executed_steps;
  out.decisions = dse::cursor_decisions(s.cursor);
  // stats() is itself a snapshot accessor, so reading a live policy here
  // is race-free even while a service thread steps it.
  out.stats = s.policy ? s.policy->stats() : s.last_stats;
  return out;
}

dse::MinPlusOneResult SessionManager::min_plus_one_result(
    SessionId id) const {
  const util::LockGuard lock(mutex_);
  const Session& s = session_locked(id);
  const auto* cursor = std::get_if<dse::MinPlusOneCursor>(&s.cursor);
  if (cursor == nullptr)
    throw std::logic_error("SessionManager: session is not min+1");
  return dse::min_plus_one_result(*cursor, s.spec.min_plus);
}

dse::SensitivityResult SessionManager::sensitivity_result(
    SessionId id) const {
  const util::LockGuard lock(mutex_);
  const Session& s = session_locked(id);
  const auto* cursor = std::get_if<dse::SensitivityCursor>(&s.cursor);
  if (cursor == nullptr)
    throw std::logic_error("SessionManager: session is not steepest-descent");
  return dse::sensitivity_result(*cursor);
}

std::size_t SessionManager::resident_count() const {
  const util::LockGuard lock(mutex_);
  return resident_;
}

ServeStats SessionManager::stats() const {
  const util::LockGuard lock(mutex_);
  return stats_;
}

std::vector<double> SessionManager::request_latencies_ms() const {
  const util::LockGuard lock(mutex_);
  return latencies_ms_;
}

}  // namespace ace::serve
