// HEVC 2-D luma motion compensation (Table I row 4, Nv = 23).
//
// Implements the HEVC (H.265) 8-tap luma fractional interpolation on 8×8
// blocks: a horizontal 8-tap FIR over a (8+7)×(8+7) source window followed
// by a vertical 8-tap FIR, per the standard's quarter-sample filters. The
// reference path runs in normalized double precision (coefficients /64);
// the quantized path inserts 23 word-length-controlled quantizers:
//
//   site 0      input pixel read
//   sites 1-8   horizontal tap products
//   site 9      horizontal accumulator
//   site 10     intermediate (post-horizontal) row storage
//   sites 11-18 vertical tap products
//   site 19     vertical accumulator
//   site 20     vertical filter output
//   site 21     clipped output
//   site 22     final output storage
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "fixedpoint/quantizer.hpp"
#include "video/frame.hpp"

namespace ace::video {

inline constexpr std::size_t kBlockSize = 8;
inline constexpr std::size_t kTaps = 8;
/// Source window needed for an 8×8 block with 8-tap filters.
inline constexpr std::size_t kWindow = kBlockSize + kTaps - 1;
inline constexpr std::size_t kMcSites = 23;

/// HEVC luma filter for fractional phase 0..3 (0 = copy, 2 = half-sample),
/// normalized so the coefficients sum to 1.
const std::array<double, kTaps>& luma_filter(int phase);

/// One motion-compensation job: a 15×15 source window plus the fractional
/// motion-vector phases (0..3 each).
struct McJob {
  Frame window{kWindow, kWindow};
  int frac_x = 0;
  int frac_y = 0;
};

/// Deterministic synthetic job set with mixed fractional phases.
std::vector<McJob> synthetic_jobs(util::Rng& rng, std::size_t count);

/// Reference (double precision) interpolation of the 8×8 block.
Frame interpolate_reference(const McJob& job);

/// Fixed-point MC emulation with the 23 sites described above.
class QuantizedMotionCompensation {
 public:
  static constexpr std::size_t kVariables = kMcSites;

  /// Calibrates per-site integer bits over the given jobs.
  /// Throws std::invalid_argument on an empty calibration set.
  explicit QuantizedMotionCompensation(const std::vector<McJob>& calibration,
                                       int margin_bits = 1);

  /// One quantizer per site for word lengths w (size 23, each in
  /// [2, 52]; throws std::invalid_argument otherwise). A simulation builds
  /// them once and interpolates each of its jobs with them.
  std::vector<fixedpoint::Quantizer> site_quantizers(
      const std::vector<int>& w) const;

  /// Interpolate one job through quantizers from site_quantizers().
  /// Throws std::invalid_argument unless there are 23 of them.
  Frame interpolate(const McJob& job,
                    const std::vector<fixedpoint::Quantizer>& q) const;

  /// Interpolate with word lengths w (size 23, each in [2, 52]).
  Frame interpolate(const McJob& job, const std::vector<int>& w) const {
    return interpolate(job, site_quantizers(w));
  }

  const std::vector<int>& site_integer_bits() const { return site_iwl_; }

 private:
  std::vector<int> site_iwl_;
};

}  // namespace ace::video
