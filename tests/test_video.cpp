#include "video/hevc_mc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "metrics/noise_power.hpp"
#include "util/rng.hpp"
#include "video/frame.hpp"

namespace {

namespace v = ace::video;

TEST(Frame, AccessAndValidation) {
  EXPECT_THROW(v::Frame(0, 4), std::invalid_argument);
  v::Frame f(3, 2, 0.5);
  EXPECT_EQ(f.width(), 3u);
  EXPECT_EQ(f.height(), 2u);
  EXPECT_DOUBLE_EQ(f.at(2, 1), 0.5);
  f.at(0, 0) = 0.75;
  EXPECT_DOUBLE_EQ(f.at(0, 0), 0.75);
  EXPECT_THROW((void)f.at(3, 0), std::out_of_range);
  EXPECT_THROW((void)f.at(0, 2), std::out_of_range);
}

TEST(SyntheticPatch, ValuesOn8BitGrid) {
  ace::util::Rng rng(20);
  const auto f = v::synthetic_patch(rng, 16, 16);
  for (std::size_t y = 0; y < 16; ++y)
    for (std::size_t x = 0; x < 16; ++x) {
      const double val = f.at(x, y);
      EXPECT_GE(val, 0.0);
      EXPECT_LT(val, 1.0);
      EXPECT_NEAR(val * 256.0, std::round(val * 256.0), 1e-9);
    }
}

TEST(LumaFilter, CoefficientsFromTheStandard) {
  // Normalized HEVC half-sample filter: {-1,4,-11,40,40,-11,4,-1}/64.
  const auto& half = v::luma_filter(2);
  EXPECT_DOUBLE_EQ(half[0], -1.0 / 64.0);
  EXPECT_DOUBLE_EQ(half[3], 40.0 / 64.0);
  EXPECT_DOUBLE_EQ(half[4], 40.0 / 64.0);
  // Each phase sums to unity (DC preserving).
  for (int phase = 0; phase < 4; ++phase) {
    double sum = 0.0;
    for (double c : v::luma_filter(phase)) sum += c;
    EXPECT_NEAR(sum, 1.0, 1e-12) << "phase " << phase;
  }
  EXPECT_THROW((void)v::luma_filter(4), std::invalid_argument);
  EXPECT_THROW((void)v::luma_filter(-1), std::invalid_argument);
}

TEST(LumaFilter, QuarterAndThreeQuarterAreMirrored) {
  const auto& q1 = v::luma_filter(1);
  const auto& q3 = v::luma_filter(3);
  for (std::size_t i = 0; i < v::kTaps; ++i)
    EXPECT_DOUBLE_EQ(q1[i], q3[v::kTaps - 1 - i]);
}

v::McJob constant_job(double value, int fx, int fy) {
  v::McJob job;
  for (std::size_t y = 0; y < v::kWindow; ++y)
    for (std::size_t x = 0; x < v::kWindow; ++x) job.window.at(x, y) = value;
  job.frac_x = fx;
  job.frac_y = fy;
  return job;
}

TEST(InterpolateReference, ConstantBlockIsPreserved) {
  for (int fx = 0; fx < 4; ++fx)
    for (int fy = 0; fy < 4; ++fy) {
      const auto out = v::interpolate_reference(constant_job(0.5, fx, fy));
      for (std::size_t y = 0; y < v::kBlockSize; ++y)
        for (std::size_t x = 0; x < v::kBlockSize; ++x)
          EXPECT_NEAR(out.at(x, y), 0.5, 1e-12)
              << "phase (" << fx << "," << fy << ")";
    }
}

TEST(InterpolateReference, IntegerPhaseCopiesCenterPixels) {
  ace::util::Rng rng(21);
  v::McJob job;
  job.window = v::synthetic_patch(rng, v::kWindow, v::kWindow);
  job.frac_x = 0;
  job.frac_y = 0;
  const auto out = v::interpolate_reference(job);
  // The copy filter has its unity tap at index 3.
  for (std::size_t y = 0; y < v::kBlockSize; ++y)
    for (std::size_t x = 0; x < v::kBlockSize; ++x)
      EXPECT_DOUBLE_EQ(out.at(x, y), job.window.at(x + 3, y + 3));
}

TEST(InterpolateReference, LinearRampIsInterpolatedExactly) {
  // 8-tap DCT-IF filters reproduce affine signals: a horizontal ramp
  // shifted by a quarter sample stays a ramp with offset 0.25.
  v::McJob job;
  for (std::size_t y = 0; y < v::kWindow; ++y)
    for (std::size_t x = 0; x < v::kWindow; ++x)
      job.window.at(x, y) = 0.01 * static_cast<double>(x);
  job.frac_x = 2;  // Half-sample shift.
  job.frac_y = 0;
  const auto out = v::interpolate_reference(job);
  for (std::size_t x = 0; x < v::kBlockSize; ++x)
    EXPECT_NEAR(out.at(x, 0), 0.01 * (static_cast<double>(x) + 3.5), 1e-9);
}

TEST(SyntheticJobs, DeterministicAndNonTrivialPhases) {
  ace::util::Rng a(22), b(22);
  const auto j1 = v::synthetic_jobs(a, 10);
  const auto j2 = v::synthetic_jobs(b, 10);
  ASSERT_EQ(j1.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(j1[i].frac_x, j2[i].frac_x);
    EXPECT_EQ(j1[i].frac_y, j2[i].frac_y);
    EXPECT_FALSE(j1[i].frac_x == 0 && j1[i].frac_y == 0);
    EXPECT_DOUBLE_EQ(j1[i].window.at(5, 5), j2[i].window.at(5, 5));
  }
  EXPECT_THROW((void)v::synthetic_jobs(a, 0), std::invalid_argument);
}

TEST(QuantizedMc, ValidationAndSiteCount) {
  ace::util::Rng rng(23);
  const auto jobs = v::synthetic_jobs(rng, 4);
  const v::QuantizedMotionCompensation q(jobs);
  EXPECT_EQ(q.site_integer_bits().size(), v::kMcSites);
  EXPECT_THROW(v::QuantizedMotionCompensation({}), std::invalid_argument);
  EXPECT_THROW((void)q.interpolate(jobs[0], std::vector<int>(10, 12)),
               std::invalid_argument);
  EXPECT_THROW((void)q.interpolate(jobs[0], std::vector<int>(23, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)q.site_quantizers(std::vector<int>(23, 53)),
               std::invalid_argument);
  std::vector<ace::fixedpoint::Quantizer> short_set =
      q.site_quantizers(std::vector<int>(23, 12));
  short_set.pop_back();
  EXPECT_THROW((void)q.interpolate(jobs[0], short_set), std::invalid_argument);
}

TEST(QuantizedMc, WideWordsConvergeToReference) {
  ace::util::Rng rng(24);
  const auto jobs = v::synthetic_jobs(rng, 4);
  const v::QuantizedMotionCompensation q(jobs);
  const std::vector<int> wide(v::kMcSites, 36);
  for (const auto& job : jobs) {
    const auto ref = v::interpolate_reference(job);
    const auto approx = q.interpolate(job, wide);
    for (std::size_t y = 0; y < v::kBlockSize; ++y)
      for (std::size_t x = 0; x < v::kBlockSize; ++x)
        EXPECT_NEAR(approx.at(x, y), ref.at(x, y), 1e-8);
  }
}

class McMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(McMonotoneTest, NoiseShrinksWithWiderWords) {
  const int w = GetParam();
  ace::util::Rng rng(25);
  const auto jobs = v::synthetic_jobs(rng, 6);
  const v::QuantizedMotionCompensation q(jobs);
  auto total_power = [&](int width) {
    std::vector<double> approx, ref;
    for (const auto& job : jobs) {
      const auto a = q.interpolate(job, std::vector<int>(v::kMcSites, width));
      const auto r = v::interpolate_reference(job);
      for (std::size_t y = 0; y < v::kBlockSize; ++y)
        for (std::size_t x = 0; x < v::kBlockSize; ++x) {
          approx.push_back(a.at(x, y));
          ref.push_back(r.at(x, y));
        }
    }
    return ace::metrics::noise_power(approx, ref);
  };
  EXPECT_LT(total_power(w + 4), total_power(w));
}

INSTANTIATE_TEST_SUITE_P(Widths, McMonotoneTest,
                         ::testing::Values(6, 8, 10, 12));

TEST(QuantizedMc, Deterministic) {
  ace::util::Rng rng(26);
  const auto jobs = v::synthetic_jobs(rng, 2);
  const v::QuantizedMotionCompensation q(jobs);
  const std::vector<int> w(v::kMcSites, 10);
  const auto a = q.interpolate(jobs[0], w);
  const auto b = q.interpolate(jobs[0], w);
  // Quantizers built once and shared by every job give the same blocks.
  const auto sites = q.site_quantizers(w);
  const auto shared0 = q.interpolate(jobs[0], sites);
  const auto shared1 = q.interpolate(jobs[1], sites);
  const auto c = q.interpolate(jobs[1], w);
  for (std::size_t y = 0; y < v::kBlockSize; ++y)
    for (std::size_t x = 0; x < v::kBlockSize; ++x) {
      EXPECT_EQ(a.at(x, y), b.at(x, y));
      EXPECT_EQ(shared0.at(x, y), a.at(x, y));
      EXPECT_EQ(shared1.at(x, y), c.at(x, y));
    }
}

}  // namespace
