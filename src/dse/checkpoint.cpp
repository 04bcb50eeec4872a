#include "dse/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>
#include <variant>

#include "dse/scheduler.hpp"

namespace ace::dse {

namespace {

constexpr const char* kMagic = "ACE-CHECKPOINT";
/// Version 2 added the conditioning / factorization counters to the stats
/// record (ridge_fallbacks, full_factorizations, two counters of the
/// since-retired factor cache, rcond_per_solve). Version 3 added the
/// acquisition-gate counters (loo_rejections, sequential_rejections,
/// loo_passes, loo_abs_error). Older files still load: each version's tail
/// is gated on the header version, so missing fields default to zero — a
/// v1/v2 file restores under the gate-aware policy with its
/// variance_rejections intact and the v3 counters at their fresh-policy
/// values.
constexpr int kVersion = 3;

/// The payload's text tag of each optimizer: serialize writes it, parse
/// reads it back and rejects any other tag.
constexpr std::pair<OptimizerKind, std::string_view> kOptimizerTags[] = {
    {OptimizerKind::kMinPlusOne, "min_plus_one"},
    {OptimizerKind::kSteepestDescent, "steepest_descent"},
};

std::string optimizer_tag(OptimizerKind kind) {
  for (const auto& [k, tag] : kOptimizerTags)
    if (k == kind) return std::string(tag);
  throw std::invalid_argument("checkpoint: unknown optimizer kind");
}

/// Staging-file name for the atomic tmp+rename write. The name is unique
/// per process *and* per write (pid + a process-local counter), so two
/// concurrent writers — two threads here, or two processes checkpointing
/// the same path — can never interleave on a shared ".tmp" file and
/// rename a half-written payload into place.
std::string unique_tmp_name(const std::string& path) {
  static std::atomic<unsigned long> counter{0};
  std::string tmp = path;
  tmp += ".tmp.";
  tmp += std::to_string(static_cast<long>(::getpid()));
  tmp += '.';
  tmp += std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  return tmp;
}

/// Unlinks the staging file unless the write completed: a failure anywhere
/// on the open/write/rename path must not leave an orphaned .tmp behind.
class TmpGuard {
 public:
  explicit TmpGuard(std::string path) : path_(std::move(path)) {}
  ~TmpGuard() {
    if (armed_) (void)std::remove(path_.c_str());
  }
  void disarm() { armed_ = false; }

 private:
  std::string path_;
  bool armed_ = true;
};

// --- writing ---------------------------------------------------------------

void put(std::string& out, std::size_t v) {
  out += std::to_string(v);
  out += ' ';
}

void put(std::string& out, int v) {
  out += std::to_string(v);
  out += ' ';
}

void put(std::string& out, bool v) { put(out, v ? 1 : 0); }

/// Hexfloat ("%a") so the double round-trips exactly; glibc also prints
/// inf/-inf/nan here, which strtod parses back.
void put(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
  out += ' ';
}

void put_config(std::string& out, const Config& c) {
  for (int v : c) put(out, v);
}

void put_sized(std::string& out, const std::vector<std::size_t>& xs) {
  put(out, xs.size());
  for (std::size_t v : xs) put(out, v);
  out += '\n';
}

void put_sized(std::string& out, const Config& c) {
  put(out, c.size());
  put_config(out, c);
  out += '\n';
}

void put_running_stats(std::string& out, const util::RunningStats& stats) {
  const util::RunningStats::State rs = stats.state();
  put(out, rs.n);
  put(out, rs.mean);
  put(out, rs.m2);
  put(out, rs.min);
  put(out, rs.max);
}

void put_stats(std::string& out, const PolicyStats& s) {
  out += "stats ";
  put(out, s.total);
  put(out, s.simulated);
  put(out, s.interpolated);
  put(out, s.exact_hits);
  put(out, s.kriging_failures);
  put(out, s.variance_rejections);
  put(out, s.refits);
  put(out, s.failed_refits);
  put(out, s.simulator_faults);
  put(out, s.retries);
  put(out, s.timeouts);
  put(out, s.quarantined);
  put(out, s.checkpoints_written);
  put_running_stats(out, s.neighbors_per_interpolation);
  // Version-2 tail: conditioning / factorization counters.
  put(out, s.ridge_fallbacks);
  put(out, s.full_factorizations);
  // The two slots of the retired factor cache's counters, always 0, kept
  // so the v3 layout (and every file written in it) stays unchanged.
  put(out, std::size_t{0});
  put(out, std::size_t{0});
  put_running_stats(out, s.rcond_per_solve);
  // Version-3 tail: acquisition-gate counters.
  put(out, s.loo_rejections);
  put(out, s.sequential_rejections);
  put(out, s.loo_passes);
  put_running_stats(out, s.loo_abs_error);
  out += '\n';
}

std::string serialize(const Checkpoint& ck) {
  std::string out;
  out += kMagic;
  out += ' ';
  out += std::to_string(kVersion);
  out += '\n';
  out += "optimizer ";
  out += optimizer_tag(optimizer_kind(ck.cursor));
  out += '\n';

  const PolicySnapshot& p = ck.policy;
  out += "store ";
  put(out, p.configs.size());
  put(out, p.configs.empty() ? std::size_t{0} : p.configs.front().size());
  out += '\n';
  for (std::size_t i = 0; i < p.configs.size(); ++i) {
    put_config(out, p.configs[i]);
    put(out, p.values[i]);
    out += '\n';
  }
  out += "quarantine ";
  put(out, p.quarantine.size());
  put(out,
      p.quarantine.empty() ? std::size_t{0} : p.quarantine.front().first.size());
  out += '\n';
  for (const auto& [config, code] : p.quarantine) {
    put(out, static_cast<int>(code));
    put_config(out, config);
    out += '\n';
  }
  out += "fit_events ";
  put_sized(out, p.fit_events);
  put_stats(out, p.stats);

  // Both cursor lines are always written; the optimizer that does not run
  // gets a default cursor's line.
  const auto* active_m = std::get_if<MinPlusOneCursor>(&ck.cursor);
  const MinPlusOneCursor& m =
      active_m != nullptr ? *active_m : MinPlusOneCursor{};
  out += "cursor_min_plus ";
  put(out, m.phase);
  put(out, m.var);
  put(out, m.steps);
  put(out, m.have_lambda_at_max);
  put(out, m.have_lambda);
  put(out, m.lambda_at_max);
  put(out, m.lambda);
  out += '\n';
  out += "w_min ";
  put_sized(out, m.w_min);
  out += "w ";
  put_sized(out, m.w);
  out += "decisions ";
  put_sized(out, m.decisions);

  const auto* active_s = std::get_if<SensitivityCursor>(&ck.cursor);
  const SensitivityCursor& s =
      active_s != nullptr ? *active_s : SensitivityCursor{};
  out += "cursor_sensitivity ";
  put(out, s.started);
  put(out, s.done);
  put(out, s.feasible);
  put(out, s.steps);
  put(out, s.lambda);
  out += '\n';
  out += "levels ";
  put_sized(out, s.levels);
  out += "decisions ";
  put_sized(out, s.decisions);

  out += "end\n";
  return out;
}

// --- reading ---------------------------------------------------------------

/// Whitespace-separated tokens over the whole payload, so every count can
/// be checked against the bytes left before anything is allocated for it.
class Reader {
 public:
  explicit Reader(std::istream& in)
      : payload_(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>()) {}

  // A cut-off stream (worker crash mid-write, truncated download) is
  // reported as kTruncatedPayload, a token that exists but does not parse
  // as kCorruptPayload — both typed, so a partial file can never load
  // silently and callers can route the two failure classes differently.
  std::string token() {
    while (pos_ < payload_.size() && is_space(payload_[pos_])) ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < payload_.size() && !is_space(payload_[pos_])) ++pos_;
    if (pos_ == begin)
      throw PayloadError(FaultCode::kTruncatedPayload,
                         "checkpoint: unexpected end of file");
    return payload_.substr(begin, pos_ - begin);
  }

  void expect(const char* keyword) {
    const std::string t = token();
    if (t != keyword)
      throw PayloadError(FaultCode::kCorruptPayload,
                         std::string("checkpoint: expected '") + keyword +
                             "', got '" + t + "'");
  }

  /// A non-negative decimal that fits std::size_t (no sign, no overflow).
  std::size_t size() { return decimal<std::size_t>("count"); }

  /// A count of records still to come: also rejected when the unread
  /// payload cannot hold that many one-token records.
  std::size_t count() {
    const std::size_t n = size();
    require_room(n, 1);
    return n;
  }

  /// Throws kCorruptPayload unless `records` records of `tokens_each`
  /// (>= 1) tokens fit in the unread payload. Every token takes at least
  /// one byte plus a separator, so a corrupt count can never drive an
  /// allocation larger than the payload itself.
  void require_room(std::size_t records, std::size_t tokens_each) const {
    const std::size_t room = (payload_.size() - pos_ + 1) / 2;
    if (records != 0 && records > room / tokens_each)
      throw PayloadError(FaultCode::kCorruptPayload,
                         "checkpoint: count " + std::to_string(records) +
                             " exceeds the remaining payload");
  }

  int integer() { return decimal<int>("integer"); }

  bool boolean() { return integer() != 0; }

  double real() {
    const std::string t = token();
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0')
      throw PayloadError(FaultCode::kCorruptPayload,
                         "checkpoint: bad double '" + t + "'");
    return v;
  }

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }

  /// The whole token as a decimal T; out-of-range values are corrupt, not
  /// wrapped.
  template <typename T>
  T decimal(const char* what) {
    const std::string t = token();
    T v{};
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || end != t.data() + t.size())
      throw PayloadError(FaultCode::kCorruptPayload,
                         std::string("checkpoint: bad ") + what + " '" + t +
                             "'");
    return v;
  }

  std::string payload_;
  std::size_t pos_ = 0;
};

Config read_config(Reader& r, std::size_t dim) {
  Config c(dim);
  for (std::size_t i = 0; i < dim; ++i) c[i] = r.integer();
  return c;
}

std::vector<std::size_t> read_sized(Reader& r) {
  std::vector<std::size_t> xs(r.count());
  for (std::size_t& v : xs) v = r.size();
  return xs;
}

Config read_sized_config(Reader& r) {
  const std::size_t n = r.count();
  return read_config(r, n);
}

util::RunningStats read_running_stats(Reader& r) {
  util::RunningStats::State rs;
  rs.n = r.size();
  rs.mean = r.real();
  rs.m2 = r.real();
  rs.min = r.real();
  rs.max = r.real();
  return util::RunningStats(rs);
}

PolicyStats read_stats(Reader& r, int version) {
  r.expect("stats");
  PolicyStats s;
  s.total = r.size();
  s.simulated = r.size();
  s.interpolated = r.size();
  s.exact_hits = r.size();
  s.kriging_failures = r.size();
  s.variance_rejections = r.size();
  s.refits = r.size();
  s.failed_refits = r.size();
  s.simulator_faults = r.size();
  s.retries = r.size();
  s.timeouts = r.size();
  s.quarantined = r.size();
  s.checkpoints_written = r.size();
  s.neighbors_per_interpolation = read_running_stats(r);
  if (version >= 2) {
    s.ridge_fallbacks = r.size();
    s.full_factorizations = r.size();
    (void)r.size();  // The retired factor cache's two counters.
    (void)r.size();
    s.rcond_per_solve = read_running_stats(r);
  }
  if (version >= 3) {
    s.loo_rejections = r.size();
    s.sequential_rejections = r.size();
    s.loo_passes = r.size();
    s.loo_abs_error = read_running_stats(r);
  }
  return s;
}

Checkpoint parse(std::istream& in) {
  Reader r(in);
  r.expect(kMagic);
  const int version = r.integer();
  if (version < 1 || version > kVersion)
    throw PayloadError(FaultCode::kCorruptPayload,
                       "checkpoint: unsupported version " +
                           std::to_string(version));
  Checkpoint ck;
  r.expect("optimizer");
  const std::string tag = r.token();
  const auto* known = std::find_if(
      std::begin(kOptimizerTags), std::end(kOptimizerTags),
      [&](const auto& entry) { return entry.second == tag; });
  if (known == std::end(kOptimizerTags))
    throw PayloadError(FaultCode::kCorruptPayload,
                       "checkpoint: unknown optimizer '" + tag + "'");
  const OptimizerKind optimizer = known->first;

  r.expect("store");
  const std::size_t n = r.count();
  const std::size_t dim = r.count();
  r.require_room(n, dim + 1);  // dim ints and a value per record.
  ck.policy.configs.reserve(n);
  ck.policy.values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ck.policy.configs.push_back(read_config(r, dim));
    ck.policy.values.push_back(r.real());
  }
  r.expect("quarantine");
  const std::size_t m = r.count();
  const std::size_t qdim = r.count();
  r.require_room(m, qdim + 1);  // A fault code and qdim ints per record.
  ck.policy.quarantine.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const int raw_code = r.integer();
    if (raw_code < 0 ||
        raw_code > static_cast<int>(FaultCode::kTruncatedPayload))
      throw PayloadError(FaultCode::kCorruptPayload,
                         "checkpoint: bad fault code " +
                             std::to_string(raw_code));
    const auto code = static_cast<FaultCode>(raw_code);
    ck.policy.quarantine.emplace_back(read_config(r, qdim), code);
  }
  r.expect("fit_events");
  ck.policy.fit_events = read_sized(r);
  ck.policy.stats = read_stats(r, version);

  r.expect("cursor_min_plus");
  MinPlusOneCursor min_plus;
  min_plus.phase = r.integer();
  min_plus.var = r.size();
  min_plus.steps = r.size();
  min_plus.have_lambda_at_max = r.boolean();
  min_plus.have_lambda = r.boolean();
  min_plus.lambda_at_max = r.real();
  min_plus.lambda = r.real();
  r.expect("w_min");
  min_plus.w_min = read_sized_config(r);
  r.expect("w");
  min_plus.w = read_sized_config(r);
  r.expect("decisions");
  min_plus.decisions = read_sized(r);

  r.expect("cursor_sensitivity");
  SensitivityCursor sensitivity;
  sensitivity.started = r.boolean();
  sensitivity.done = r.boolean();
  sensitivity.feasible = r.boolean();
  sensitivity.steps = r.size();
  sensitivity.lambda = r.real();
  r.expect("levels");
  sensitivity.levels = read_sized_config(r);
  r.expect("decisions");
  sensitivity.decisions = read_sized(r);
  ck.cursor =
      select_cursor(optimizer, std::move(min_plus), std::move(sensitivity));

  r.expect("end");
  return ck;
}

/// record_checkpoint() runs *before* snapshot(), so the on-disk statistics
/// count the checkpoint that carries them — a resumed run's
/// checkpoints_written lines up with the uninterrupted run's.
void write_policy_checkpoint(KrigingPolicy& policy, Checkpoint& ck,
                             const std::string& path) {
  policy.record_checkpoint();
  ck.policy = policy.snapshot();
  save_checkpoint(path, ck);
}

}  // namespace

std::string serialize_checkpoint(const Checkpoint& checkpoint) {
  return serialize(checkpoint);
}

Checkpoint parse_checkpoint(std::istream& in) { return parse(in); }

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  const std::string payload = serialize(checkpoint);
  const std::string tmp = unique_tmp_name(path);
  TmpGuard guard(tmp);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open " + tmp);
    out << payload;
    out.flush();
    if (!out.good())
      throw std::runtime_error("checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  guard.disarm();
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return parse(in);
}

namespace {

/// The one checkpointed driver loop. Resumes from the file at
/// `checkpoint.path` when it holds a run of the same optimizer as
/// `cursor`, then steps the cursor until it finishes or `step_limit`
/// steps pause it, writing a checkpoint after every step.
OptimizerCursor checkpointed_run(KrigingPolicy& policy,
                                 const SimulatorFn& simulate,
                                 OptimizerCursor cursor,
                                 const MinPlusOneOptions& min_plus,
                                 const SensitivityOptions& sensitivity,
                                 const CheckpointOptions& checkpoint,
                                 util::ThreadPool* pool) {
  if (checkpoint.path.empty())
    throw std::invalid_argument("checkpoint: empty path");
  if (std::optional<Checkpoint> loaded = load_checkpoint(checkpoint.path)) {
    const OptimizerKind owner = optimizer_kind(loaded->cursor);
    if (owner != optimizer_kind(cursor))
      throw std::runtime_error("checkpoint: file at " + checkpoint.path +
                               " belongs to optimizer '" +
                               optimizer_tag(owner) + "'");
    policy.restore(loaded->policy);
    cursor = std::move(loaded->cursor);
  }
  const BatchEvaluateFn evaluate = policy_batch_evaluator(policy, simulate, pool);

  Checkpoint ck;
  std::size_t steps_this_run = 0;
  while (!cursor_finished(cursor)) {
    const bool more = optimizer_step(evaluate, min_plus, sensitivity, cursor);
    ck.cursor = cursor;
    write_policy_checkpoint(policy, ck, checkpoint.path);
    if (more && ++steps_this_run == checkpoint.step_limit) break;
  }
  return cursor;
}

}  // namespace

MinPlusOneResult checkpointed_min_plus_one(KrigingPolicy& policy,
                                           const SimulatorFn& simulate,
                                           const MinPlusOneOptions& options,
                                           const CheckpointOptions& checkpoint,
                                           util::ThreadPool* pool) {
  return min_plus_one_result(
      std::get<MinPlusOneCursor>(
          checkpointed_run(policy, simulate, make_min_plus_one_cursor(options),
                           options, {}, checkpoint, pool)),
      options);
}

SensitivityResult checkpointed_steepest_descent(
    KrigingPolicy& policy, const SimulatorFn& simulate,
    const SensitivityOptions& options, const CheckpointOptions& checkpoint,
    util::ThreadPool* pool) {
  return sensitivity_result(std::get<SensitivityCursor>(
      checkpointed_run(policy, simulate, make_sensitivity_cursor(options), {},
                       options, checkpoint, pool)));
}

}  // namespace ace::dse
