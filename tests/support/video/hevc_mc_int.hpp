// Bit-true integer HEVC luma interpolation (H.265 §8.5.4.2.2.1) — the
// tests' golden model for the library's normalized-double dataflow in
// src/video/hevc_mc.*.
//
// 8-bit samples, integer filter taps summing to 64. A doubly-fractional
// position filters horizontally at full precision, then vertically, and
// rounds once: out = Clip3(0, 255, (Σ c_v · tmp + 2^11) >> 12). A singly-
// fractional position rounds with (… + 32) >> 6. The test suite asserts
// the normalized reference matches this model to within its final
// rounding step.
#pragma once

#include <array>

#include "video/hevc_mc.hpp"

namespace ace::video {

/// Integer luma filter taps for fractional phase 0..3 (sum = 64).
const std::array<int, kTaps>& luma_filter_int(int phase);

/// 8-bit integer sample block.
struct IntBlock {
  std::array<std::array<int, kBlockSize>, kBlockSize> samples{};
};

/// Bit-true interpolation of an 8×8 block. The job's window samples must
/// lie on the 8-bit grid (value·256 integral) — synthetic_patch guarantees
/// this; throws std::invalid_argument otherwise.
IntBlock interpolate_integer(const McJob& job);

}  // namespace ace::video
