#include "core/benchmarks.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dse/batch_sim.hpp"
#include "nn/dataset.hpp"
#include "nn/squeezenet.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/hevc_mc.hpp"

namespace {

namespace c = ace::core;
namespace d = ace::dse;

c::SignalBenchOptions tiny_signal() {
  c::SignalBenchOptions o;
  o.samples = 128;
  return o;
}

TEST(FirBenchmark, ShapeAndDeterminism) {
  const auto bench = c::make_fir_benchmark(tiny_signal());
  EXPECT_EQ(bench.name, "FIR");
  EXPECT_EQ(bench.nv, 2u);
  EXPECT_EQ(bench.metric, d::MetricKind::kAccuracyDb);
  EXPECT_EQ(bench.optimizer, c::OptimizerKind::kMinPlusOne);
  const d::Config w = {10, 10};
  EXPECT_DOUBLE_EQ(bench.simulate(w), bench.simulate(w));
}

TEST(FirBenchmark, AccuracyImprovesWithWiderWords) {
  const auto bench = c::make_fir_benchmark(tiny_signal());
  EXPECT_LT(bench.simulate({6, 6}), bench.simulate({12, 12}));
  EXPECT_LT(bench.simulate({8, 8}), bench.simulate({14, 14}));
}

TEST(FirBenchmark, IndependentInstancesAgree) {
  // Same seed -> same simulator behaviour (cross-instance determinism).
  const auto a = c::make_fir_benchmark(tiny_signal());
  const auto b = c::make_fir_benchmark(tiny_signal());
  EXPECT_DOUBLE_EQ(a.simulate({9, 11}), b.simulate({9, 11}));
}

TEST(IirBenchmark, ShapeAndMonotonicity) {
  const auto bench = c::make_iir_benchmark(tiny_signal());
  EXPECT_EQ(bench.name, "IIR");
  EXPECT_EQ(bench.nv, 5u);
  const d::Config narrow(5, 8), wide(5, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
}

TEST(FftBenchmark, ShapeAndMonotonicity) {
  const auto bench = c::make_fft_benchmark(tiny_signal());
  EXPECT_EQ(bench.name, "FFT");
  EXPECT_EQ(bench.nv, 10u);
  const d::Config narrow(10, 8), wide(10, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
}

TEST(HevcBenchmark, ShapeAndMonotonicity) {
  c::HevcBenchOptions o;
  o.jobs = 4;
  const auto bench = c::make_hevc_benchmark(o);
  EXPECT_EQ(bench.name, "HEVC");
  EXPECT_EQ(bench.nv, 23u);
  const d::Config narrow(23, 8), wide(23, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
  EXPECT_DOUBLE_EQ(bench.simulate(narrow), bench.simulate(narrow));
}

TEST(SqueezeNetBenchmark, ShapeAndQualitySemantics) {
  c::CnnBenchOptions o;
  o.images = 30;
  o.classes = 5;
  const auto bench = c::make_squeezenet_benchmark(o);
  EXPECT_EQ(bench.name, "SqueezeNet");
  EXPECT_EQ(bench.nv, 10u);
  EXPECT_EQ(bench.metric, d::MetricKind::kQualityRate);
  EXPECT_EQ(bench.optimizer, c::OptimizerKind::kSteepestDescent);

  // Near-silent sources: agreement ~1. Loud sources: lower agreement.
  const d::Config quiet(10, o.level_max);
  const d::Config loud(10, 0);
  const double q_quiet = bench.simulate(quiet);
  const double q_loud = bench.simulate(loud);
  EXPECT_GT(q_quiet, 0.9);
  EXPECT_LE(q_quiet, 1.0);
  EXPECT_LT(q_loud, q_quiet);
  // Deterministic.
  EXPECT_DOUBLE_EQ(bench.simulate(loud), q_loud);
}

TEST(IirSensitivityBenchmark, ShapeAndMonotonicity) {
  c::IirSensitivityOptions o;
  o.samples = 128;
  const auto bench = c::make_iir_sensitivity_benchmark(o);
  EXPECT_EQ(bench.name, "IIR-sens");
  EXPECT_EQ(bench.nv, 5u);  // 4 sections + input source.
  EXPECT_EQ(bench.optimizer, c::OptimizerKind::kSteepestDescent);
  // Quieter sources (higher level) -> higher accuracy.
  const d::Config quiet(5, 20), loud(5, 4);
  EXPECT_GT(bench.simulate(quiet), bench.simulate(loud));
  EXPECT_DOUBLE_EQ(bench.simulate(loud), bench.simulate(loud));
}

TEST(ApproxFirBenchmark, ShapeAndMonotonicity) {
  c::ApproxFirBenchOptions o;
  o.samples = 128;
  const auto bench = c::make_approx_fir_benchmark(o);
  EXPECT_EQ(bench.name, "ApproxFIR");
  EXPECT_EQ(bench.nv, 4u);
  // More precise operators (higher v) -> higher accuracy.
  const d::Config rough(4, 4), fine(4, 12);
  EXPECT_LT(bench.simulate(rough), bench.simulate(fine));
  EXPECT_DOUBLE_EQ(bench.simulate(rough), bench.simulate(rough));
  // Validation.
  c::ApproxFirBenchOptions bad;
  bad.taps = 3;
  EXPECT_THROW((void)c::make_approx_fir_benchmark(bad),
               std::invalid_argument);
  bad = {};
  bad.v_min = 14;
  EXPECT_THROW((void)c::make_approx_fir_benchmark(bad),
               std::invalid_argument);
}

TEST(DctBenchmark, ShapeAndMonotonicity) {
  c::DctBenchOptions o;
  o.blocks = 6;
  const auto bench = c::make_dct_benchmark(o);
  EXPECT_EQ(bench.name, "DCT");
  EXPECT_EQ(bench.nv, 6u);
  const d::Config narrow(6, 8), wide(6, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
}

TEST(FftBenchmark, RejectsTooFewSamples) {
  c::SignalBenchOptions o;
  o.samples = 32;
  EXPECT_THROW((void)c::make_fft_benchmark(o), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bit-pinned λ. Each simulator is run on eight fixed configurations and its
// λ compared bit for bit against a recorded IEEE-754 double (hexfloat).
// A change to any floating-point operation of a kernel, or to the order of
// the operations behind one output, shows up here. The figures assume
// round-to-nearest, no FMA contraction and no fast-math (DESIGN.md, the
// simulator kernels' numerical contract) on x86-64 with glibc's libm.

/// Eight configurations over [lo, hi]: both lattice corners (the lo corner
/// saturates every word-length site), two flat mid-range points, an
/// alternating lo/hi pattern, a ramp, and two one-site outliers.
std::vector<d::Config> pin_configs(std::size_t nv, int lo, int hi) {
  const int mid = lo + (hi - lo) / 3;
  const int upper = lo + (2 * (hi - lo)) / 3;
  std::vector<d::Config> configs = {d::Config(nv, lo), d::Config(nv, hi),
                                    d::Config(nv, mid), d::Config(nv, upper)};
  d::Config alternating(nv), ramp(nv);
  for (std::size_t i = 0; i < nv; ++i) {
    alternating[i] = i % 2 == 0 ? lo : hi;
    ramp[i] = lo + static_cast<int>((5 * i + 3) %
                                    static_cast<std::size_t>(hi - lo + 1));
  }
  d::Config first_low(nv, upper), last_low(nv, hi);
  first_low.front() = lo;
  last_low.back() = lo + 2;
  configs.push_back(alternating);
  configs.push_back(ramp);
  configs.push_back(first_low);
  configs.push_back(last_low);
  return configs;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// Compares λ bit for bit; on a mismatch prints the whole measured list in
/// initializer form so a deliberate numerical change can be re-pinned.
void expect_same_bits(const std::string& what, const std::vector<double>& got,
                      const std::vector<double>& expected) {
  bool same = got.size() == expected.size();
  for (std::size_t i = 0; same && i < got.size(); ++i)
    same = std::bit_cast<std::uint64_t>(got[i]) ==
           std::bit_cast<std::uint64_t>(expected[i]);
  std::string list;
  for (double v : got) list += "      " + hex(v) + ",\n";
  EXPECT_TRUE(same) << what << " λ moved; measured:\n" << list;
}

/// Simulates the eight pin configurations one call at a time — or, given
/// a pool, through a PooledBatchSimulator on it, once as one batch and
/// once as eight one-call batches — and compares λ bit for bit.
void expect_pinned(const c::ApplicationBenchmark& bench, int lo, int hi,
                   const std::vector<double>& expected,
                   ace::util::ThreadPool* pool = nullptr) {
  const auto configs = pin_configs(bench.nv, lo, hi);
  if (pool == nullptr) {
    std::vector<double> got;
    for (const auto& config : configs) got.push_back(bench.simulate(config));
    expect_same_bits(bench.name, got, expected);
    return;
  }
  d::PooledBatchSimulator backend(bench.simulate, {}, pool);
  const auto values = [](const std::vector<ace::util::GuardedCall>& calls) {
    std::vector<double> out;
    for (const auto& call : calls) {
      EXPECT_TRUE(call.ok()) << call.message;
      out.push_back(call.value);
    }
    return out;
  };
  const std::string what = bench.name + " on " +
                           std::to_string(pool->worker_count()) + " workers";
  expect_same_bits(what + ", one batch", values(backend.simulate_many(configs)),
                   expected);
  std::vector<double> singles;
  for (const auto& config : configs)
    singles.push_back(values(backend.simulate_many({config})).front());
  expect_same_bits(what + ", one-call batches", singles, expected);
}

TEST(PinnedLambda, Fir) {
  expect_pinned(c::make_fir_benchmark(), 2, 52, {
      0x1.60f885547695bp+3,
      0x1.7a0536acdca7dp+6,
      0x1.57c216f80699p+6,
      0x1.7a053586b7417p+6,
      0x1.863cb10b39a46p+3,
      0x1.99b0a36e405c8p+4,
      0x1.863cb10b39a46p+3,
      0x1.1079be65a8c35p+4});
}

TEST(PinnedLambda, Iir) {
  expect_pinned(c::make_iir_benchmark(), 2, 52, {
      0x1.740f76c37d965p+3,
      0x1.292bad453f272p+8,
      0x1.75288decbdf12p+6,
      0x1.879eca7f48884p+7,
      0x1.740f76c37d965p+3,
      0x1.8297b6e726df9p+4,
      0x1.740f76c37d965p+3,
      0x1.361d450cde939p+3});
}

TEST(PinnedLambda, Fft) {
  expect_pinned(c::make_fft_benchmark(), 2, 52, {
      -0x1.c3991a6919a82p+2,
      0x1.1620bb6e25b12p+8,
      0x1.2567c0ad0a3f9p+6,
      0x1.5e61bc4ce74dap+7,
      -0x1.6fe77ebff7a14p+2,
      0x1.51cbd29a0393p+3,
      -0x1.5feb70449825fp+0,
      0x1.e6e6457ec18aap+2});
}

TEST(PinnedLambda, Dct) {
  expect_pinned(c::make_dct_benchmark(), 2, 52, {
      0x1.a49560adbf824p+3,
      0x1.291506d322294p+8,
      0x1.70e84f4103b2ep+6,
      0x1.85a1d96c6a744p+7,
      0x1.a49560adbf824p+3,
      0x1.a2cf8ec47e659p+4,
      0x1.a49560adbf824p+3,
      0x1.4e94d46e68355p+4});
}

TEST(PinnedLambda, ApproxFir) {
  const c::ApproxFirBenchOptions o;
  expect_pinned(c::make_approx_fir_benchmark(o), o.v_min, o.v_max, {
      0x1.7a7c0ef1b25b5p+3,
      0x1.33f1eabb9b526p+6,
      0x1.a992b9690db86p+4,
      0x1.7ac62c9f4d0bcp+5,
      0x1.7a7c0ef1b25b5p+3,
      0x1.e759da6540c58p+3,
      0x1.05923138e3987p+4,
      0x1.7c41edc5d92fcp+4});
}

TEST(PinnedLambda, IirSensitivity) {
  const c::IirSensitivityOptions o;
  expect_pinned(c::make_iir_sensitivity_benchmark(o), 0, o.level_max, {
      -0x1.6eae3422979d5p+2,
      0x1.b3d01c5b3ff5bp+5,
      0x1.8aa32961647d4p+3,
      0x1.0b3c7359cc8acp+5,
      -0x1.d45765c47e4dcp+1,
      0x1.53625364352f1p+2,
      0x1.725175c8b230ep+2,
      0x1.7b242defcce46p+2});
}

const std::vector<double> kHevcPinned = {
    0x1.255fa5ff6220cp+3,
    0x1.9p+8,
    0x1.8d4074a7e9f2cp+6,
    0x1.9p+8,
    0x1.251f9ac08251ap+3,
    0x1.eff9797b25ea1p+3,
    0x1.4a0ff182ac76dp+3,
    0x1.6e95ea83f051fp+4};

TEST(PinnedLambda, Hevc) {
  expect_pinned(c::make_hevc_benchmark(), 2, 52, kHevcPinned);
}

// The 24 jobs of each call split across the pool running it; the blocks
// reduce in job order, so λ keeps its bits on any pool.
TEST(PinnedLambda, HevcOnPool) {
  const auto bench = c::make_hevc_benchmark();
  for (const std::size_t workers : {1u, 3u}) {
    ace::util::ThreadPool pool(workers);
    expect_pinned(bench, 2, 52, kHevcPinned, &pool);
  }
}

TEST(PinnedLambda, HevcOneJob) {
  c::HevcBenchOptions o;
  o.jobs = 1;
  expect_pinned(c::make_hevc_benchmark(o), 2, 52, {
      0x1.c0ef97b50b14p+2,
      0x1.9p+8,
      0x1.79f133521fd44p+6,
      0x1.9p+8,
      0x1.c0ef97b50b14p+2,
      0x1.5c7152cf666fdp+4,
      0x1.ee3811fb87ecp+2,
      0x1.7dd224d1274d6p+4});
}

const std::vector<double> kSqueezeNetPinned = {
    0x1.999999999999ap-2,
    0x1.ccccccccccccdp-1,
    0x1.6666666666666p-1,
    0x1.999999999999ap-1,
    0x1.ccccccccccccdp-1,
    0x1p-1,
    0x1.999999999999ap-2,
    0x1.6666666666666p-1};

TEST(PinnedLambda, SqueezeNet) {
  c::CnnBenchOptions o;
  o.images = 10;
  expect_pinned(c::make_squeezenet_benchmark(o), 0, o.level_max,
                kSqueezeNetPinned);
}

// The ten images of each call split across the pool running it; the labels
// reduce in image order, so λ keeps its bits on any pool.
TEST(PinnedLambda, SqueezeNetOnPool) {
  c::CnnBenchOptions o;
  o.images = 10;
  const auto bench = c::make_squeezenet_benchmark(o);
  for (const std::size_t workers : {1u, 3u}) {
    ace::util::ThreadPool pool(workers);
    expect_pinned(bench, 0, o.level_max, kSqueezeNetPinned, &pool);
  }
}

TEST(PinnedLambda, HevcSiteIntegerBits) {
  // The calibration the HEVC benchmark runs (24 jobs, seed 7).
  ace::util::Rng rng(7);
  const ace::video::QuantizedMotionCompensation mc(
      ace::video::synthetic_jobs(rng, 24));
  const std::vector<int> expected = {1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0,
                                     0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_EQ(mc.site_integer_bits(), expected);
}

TEST(PinnedLambda, SqueezeNetLogits) {
  // p_cl only moves when an argmax flips, so the logits themselves are
  // pinned too: an FNV-1a hash over the bits of every logit of ten images,
  // clean and under three injection plans.
  ace::util::Rng rng(1234);
  auto net_rng = rng.fork();
  auto data_rng = rng.fork();
  auto noise_rng = rng.fork();
  const ace::nn::SqueezeNetLike net(10, net_rng);
  const ace::nn::SyntheticDataset data(10, 10, data_rng);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto fold = [&](const std::vector<double>& logits) {
    for (double v : logits) {
      hash ^= std::bit_cast<std::uint64_t>(v);
      hash *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < data.size(); ++i) {
    fold(net.forward(data.image(i)));
    const auto noise = ace::nn::make_frozen_noise(noise_rng, net.site_sizes());
    for (int level : {0, 6, 12}) {
      const std::vector<double> powers(ace::nn::SqueezeNetLike::kSites,
                                       ace::nn::power_from_level(level, 1.0));
      fold(net.forward_injected(
          data.image(i), ace::nn::InjectionPlan::from_powers(powers), noise));
    }
  }
  EXPECT_EQ(hash, 0x4cc6931e5849959dull) << std::hex << "measured 0x" << hash;
}

}  // namespace
