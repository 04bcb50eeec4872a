#include "video/hevc_mc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fixedpoint/range_tracker.hpp"

namespace ace::video {

namespace {

// HEVC (H.265) 8-tap luma interpolation coefficients, Table 8-11 of the
// standard; rows are fractional phases 0..3, integer coefficients sum to 64.
constexpr std::array<std::array<int, kTaps>, 4> kLumaCoeffs = {{
    {0, 0, 0, 64, 0, 0, 0, 0},
    {-1, 4, -10, 58, 17, -5, 1, 0},
    {-1, 4, -11, 40, 40, -11, 4, -1},
    {0, 1, -5, 17, 58, -10, 4, -1},
}};

std::array<double, kTaps> normalized(const std::array<int, kTaps>& c) {
  std::array<double, kTaps> out{};
  for (std::size_t i = 0; i < kTaps; ++i)
    out[i] = static_cast<double>(c[i]) / 64.0;
  return out;
}

/// Shared dataflow: `observe(site, value)` is called at every quantization
/// site and must return the value to keep (identity for the reference,
/// a quantizer for the fixed-point path, a range recorder for calibration).
/// Every observer is a pure function of (site, value), so each window pixel
/// goes through site 0 once and all eight taps that read it reuse the
/// result.
template <typename Observe>
Frame run_mc(const McJob& job, Observe&& observe) {
  const auto& ch = luma_filter(job.frac_x);
  const auto& cv = luma_filter(job.frac_y);

  // Input read (site 0), once per window pixel.
  std::array<double, kWindow * kWindow> window;
  for (std::size_t y = 0; y < kWindow; ++y)
    for (std::size_t x = 0; x < kWindow; ++x)
      window[y * kWindow + x] = observe(0, job.window.at(x, y));

  // Horizontal pass: kWindow rows of kBlockSize intermediate samples.
  std::array<double, kWindow * kBlockSize> interm;
  for (std::size_t y = 0; y < kWindow; ++y) {
    const double* row = &window[y * kWindow];
    for (std::size_t x = 0; x < kBlockSize; ++x) {
      double acc = 0.0;
      for (std::size_t t = 0; t < kTaps; ++t) {
        const double product = observe(1 + t, ch[t] * row[x + t]);
        // Accumulator-entry quantization: addends on the site-9 grid keep
        // every partial sum on the grid (no per-addition re-rounding).
        acc += observe(9, product);
      }
      interm[y * kBlockSize + x] = observe(10, acc);
    }
  }

  // Vertical pass over the intermediate rows.
  Frame out(kBlockSize, kBlockSize);
  for (std::size_t y = 0; y < kBlockSize; ++y) {
    for (std::size_t x = 0; x < kBlockSize; ++x) {
      double acc = 0.0;
      for (std::size_t t = 0; t < kTaps; ++t) {
        const double product =
            observe(11 + t, cv[t] * interm[(y + t) * kBlockSize + x]);
        acc += observe(19, product);
      }
      const double filtered = observe(20, acc);
      const double clipped =
          observe(21, std::clamp(filtered, 0.0, 255.0 / 256.0));
      out.at(x, y) = observe(22, clipped);
    }
  }
  return out;
}

}  // namespace

const std::array<double, kTaps>& luma_filter(int phase) {
  if (phase < 0 || phase > 3)
    throw std::invalid_argument("luma_filter: phase must be in [0, 3]");
  static const std::array<std::array<double, kTaps>, 4> filters = {
      normalized(kLumaCoeffs[0]), normalized(kLumaCoeffs[1]),
      normalized(kLumaCoeffs[2]), normalized(kLumaCoeffs[3])};
  return filters[static_cast<std::size_t>(phase)];
}

std::vector<McJob> synthetic_jobs(util::Rng& rng, std::size_t count) {
  if (count == 0)
    throw std::invalid_argument("synthetic_jobs: count must be positive");
  std::vector<McJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    McJob job;
    job.window = synthetic_patch(rng, kWindow, kWindow);
    // Bias toward non-integer phases — those exercise the filters; keep a
    // few integer phases so the copy path is covered too.
    job.frac_x = rng.uniform_int(0, 3);
    job.frac_y = rng.uniform_int(0, 3);
    if (job.frac_x == 0 && job.frac_y == 0) job.frac_y = 2;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Frame interpolate_reference(const McJob& job) {
  return run_mc(job, [](std::size_t, double v) { return v; });
}

QuantizedMotionCompensation::QuantizedMotionCompensation(
    const std::vector<McJob>& calibration, int margin_bits) {
  if (calibration.empty())
    throw std::invalid_argument(
        "QuantizedMotionCompensation: empty calibration set");
  fixedpoint::RangeTracker tracker(kMcSites);
  for (const auto& job : calibration)
    run_mc(job, [&](std::size_t site, double v) {
      return tracker.observe(site, v);
    });
  site_iwl_ = tracker.all_integer_bits(margin_bits);
}

std::vector<fixedpoint::Quantizer>
QuantizedMotionCompensation::site_quantizers(const std::vector<int>& w) const {
  if (w.size() != kVariables)
    throw std::invalid_argument(
        "QuantizedMotionCompensation: wrong word-length count");
  for (int wl : w)
    if (wl < 2 || wl > 52)
      throw std::invalid_argument(
          "QuantizedMotionCompensation: word length out of [2, 52]");

  std::vector<fixedpoint::Quantizer> q;
  q.reserve(kMcSites);
  for (std::size_t s = 0; s < kMcSites; ++s)
    q.emplace_back(
        fixedpoint::Format::with_clamped_integer_bits(w[s], site_iwl_[s]));
  return q;
}

Frame QuantizedMotionCompensation::interpolate(
    const McJob& job, const std::vector<fixedpoint::Quantizer>& q) const {
  if (q.size() != kMcSites)
    throw std::invalid_argument(
        "QuantizedMotionCompensation: wrong quantizer count");
  return run_mc(job,
                [&](std::size_t site, double v) { return q[site](v); });
}

}  // namespace ace::video
