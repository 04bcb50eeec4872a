// Deterministic mutation fuzzing of the two text parsers that read bytes
// from outside the process: checkpoints (dse::parse_checkpoint) and
// trajectories (dse::load_trajectory, through temp files).
//
// Each parser is fed mutants of valid payloads — seeded util::Rng byte
// flips, truncations and splices of two payloads, one test per parser and
// mutation kind — and every mutant must end one of two ways:
//   * a typed dse::PayloadError; or
//   * an accepted value that round-trips exactly: serialized and parsed
//     again, it equals itself (compared through the hexfloat
//     serialization of checkpoints, and a hexfloat dump of trajectories,
//     whose CSV prints decimals).
// Any other exception fails the test with the mutant printed; a crash or
// a hang fails the test binary (the sanitizer runs pick this file up with
// the rest of test_dse_*).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/fault.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/trajectory.hpp"
#include "dse/trajectory_io.hpp"
#include "util/rng.hpp"

namespace {

namespace d = ace::dse;

/// Mutants drawn per parser and mutation kind.
constexpr int kMutants = 2000;

enum class Mutation { kFlip, kTruncate, kSplice };

/// One seeded mutant of a random payload: 1-3 byte flips, a truncation,
/// or a splice of one payload's prefix onto another's suffix.
std::string mutate(const std::vector<std::string>& payloads, Mutation kind,
                   ace::util::Rng& rng) {
  std::string m = payloads[rng.index(payloads.size())];
  switch (kind) {
    case Mutation::kFlip: {
      const int flips = rng.uniform_int(1, 3);
      for (int f = 0; f < flips && !m.empty(); ++f) {
        const std::size_t at = rng.index(m.size());
        m[at] = static_cast<char>(static_cast<unsigned char>(m[at]) ^
                                  rng.uniform_int(1, 255));
      }
      return m;
    }
    case Mutation::kTruncate:
      return m.substr(0, rng.index(m.size() + 1));
    case Mutation::kSplice: {
      const std::string& other = payloads[rng.index(payloads.size())];
      return m.substr(0, rng.index(m.size() + 1)) +
             other.substr(rng.index(other.size() + 1));
    }
  }
  return m;
}

/// The mutant with non-printable bytes escaped, for failure messages.
std::string printable(const std::string& bytes) {
  std::string out;
  for (const char ch : bytes) {
    const auto u = static_cast<unsigned char>(ch);
    if (u >= 0x20 && u < 0x7f && ch != '\\') {
      out += ch;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

/// Runs `check` on kMutants mutants of one kind; `check` returns the
/// serialization of an accepted mutant's value and the serialization of
/// that value parsed back, or throws. Returns how many mutants were
/// accepted.
std::size_t fuzz(const std::vector<std::string>& payloads, std::uint64_t seed,
                 Mutation kind,
                 const std::function<std::pair<std::string, std::string>(
                     const std::string&)>& check) {
  ace::util::Rng rng(seed + static_cast<std::uint64_t>(kind));
  std::size_t accepted = 0;
  std::size_t failures = 0;
  for (int i = 0; i < kMutants && failures < 5; ++i) {
    const std::string mutant = mutate(payloads, kind, rng);
    try {
      const auto [first, second] = check(mutant);
      ++accepted;
      if (first != second) {
        ++failures;
        ADD_FAILURE() << "accepted mutant does not round-trip: "
                      << printable(mutant) << "\n  first:  "
                      << printable(first) << "\n  second: "
                      << printable(second);
      }
    } catch (const d::PayloadError&) {
      // The typed rejection every malformed payload must get.
    } catch (const std::exception& e) {
      ++failures;
      ADD_FAILURE() << "untyped exception '" << e.what()
                    << "' on mutant: " << printable(mutant);
    }
  }
  return accepted;
}

class ParserFuzz : public ::testing::TestWithParam<Mutation> {};

// --- checkpoints -----------------------------------------------------------

double smooth(const d::Config& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    acc += 0.5 * c[i] + 0.01 * c[i] * c[i] + 0.02 * static_cast<double>(i);
  return acc;
}

/// A checkpoint of a real policy mid-run, with every field of its cursor
/// set.
d::Checkpoint live_checkpoint(d::OptimizerKind optimizer) {
  d::PolicyOptions options;
  options.min_fit_points = 4;
  options.refit_period = 3;
  d::KrigingPolicy policy(options);
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 3; ++y) (void)policy.evaluate({x, y}, smooth);
  d::Checkpoint ck;
  ck.policy = policy.snapshot();
  ck.policy.quarantine = {{{9, 9}, d::FaultCode::kTimeout}};
  d::MinPlusOneCursor min_plus;
  min_plus.phase = 1;
  min_plus.var = 1;
  min_plus.w_min = {3, 2};
  min_plus.w = {4, 2};
  min_plus.lambda = -0.1;
  min_plus.have_lambda = true;
  min_plus.decisions = {0, 1, 1};
  min_plus.steps = 3;
  d::SensitivityCursor sensitivity;
  sensitivity.started = true;
  sensitivity.levels = {5, 6};
  sensitivity.lambda = 1.0 / 3.0;
  sensitivity.decisions = {1};
  sensitivity.steps = 1;
  ck.cursor = d::select_cursor(optimizer, min_plus, sensitivity);
  return ck;
}

std::string reserialize_checkpoint(const std::string& payload) {
  std::istringstream in(payload);
  return d::serialize_checkpoint(d::parse_checkpoint(in));
}

TEST_P(ParserFuzz, CheckpointMutantsAreTypedErrorsOrExactRoundTrips) {
  const std::vector<std::string> payloads = {
      d::serialize_checkpoint(live_checkpoint(d::OptimizerKind::kMinPlusOne)),
      d::serialize_checkpoint(
          live_checkpoint(d::OptimizerKind::kSteepestDescent))};
  for (const std::string& p : payloads)
    ASSERT_EQ(reserialize_checkpoint(p), p);
  const std::size_t accepted =
      fuzz(payloads, 17, GetParam(), [](const std::string& mutant) {
        const std::string first = reserialize_checkpoint(mutant);
        return std::make_pair(first, reserialize_checkpoint(first));
      });
  // Flips inside numbers keep some mutants well-formed: the accept path
  // was exercised, not only the rejections.
  if (GetParam() == Mutation::kFlip) EXPECT_GT(accepted, 0u);
}

// --- trajectories ------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Load `bytes` through the temp file `path`.
d::Trajectory load_bytes(const std::string& bytes, const std::string& path) {
  write_file(path, bytes);
  d::Trajectory trajectory = d::load_trajectory(path);
  std::remove(path.c_str());
  return trajectory;
}

/// Save through the temp file `path`; returns the file's bytes.
std::string save_bytes(const d::Trajectory& trajectory,
                       const std::string& path) {
  d::save_trajectory(trajectory, path);
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

/// Rows with hexfloat values: equal dumps are equal trajectories, bit for
/// bit, so a lossy save cannot hide behind its own re-parse.
std::string dump(const d::Trajectory& trajectory) {
  std::string out;
  for (std::size_t r = 0; r < trajectory.size(); ++r) {
    for (const int v : trajectory.configs[r]) out += std::to_string(v) + ' ';
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a\n", trajectory.values[r]);
    out += buf;
  }
  return out;
}

TEST_P(ParserFuzz, TrajectoryMutantsAreTypedErrorsOrExactRoundTrips) {
  d::Trajectory a;
  a.configs = {{8, 8, 8}, {7, 8, 8}, {7, 7, 8}, {6, 7, 8}};
  a.values = {-30.5, -28.25, 1.0 / 3.0, -1e-7};
  d::Trajectory b;
  b.configs = {{4, 5}, {3, 5}};
  b.values = {0.90625, 0.875};
  // One file per mutation kind: ctest runs the kinds in parallel.
  const std::string path = ::testing::TempDir() + "ace_fuzz_trajectory_" +
                           std::to_string(static_cast<int>(GetParam())) +
                           ".csv";
  const std::vector<std::string> payloads = {save_bytes(a, path),
                                             save_bytes(b, path)};
  for (const std::string& p : payloads)
    ASSERT_EQ(save_bytes(load_bytes(p, path), path), p);
  const std::size_t accepted =
      fuzz(payloads, 31, GetParam(), [&path](const std::string& mutant) {
        const d::Trajectory loaded = load_bytes(mutant, path);
        return std::make_pair(
            dump(loaded), dump(load_bytes(save_bytes(loaded, path), path)));
      });
  if (GetParam() == Mutation::kFlip) EXPECT_GT(accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, ParserFuzz,
    ::testing::Values(Mutation::kFlip, Mutation::kTruncate,
                      Mutation::kSplice),
    [](const ::testing::TestParamInfo<Mutation>& info) {
      switch (info.param) {
        case Mutation::kFlip: return std::string("flips");
        case Mutation::kTruncate: return std::string("truncations");
        case Mutation::kSplice: return std::string("splices");
      }
      return std::string("unknown");
    });

}  // namespace
