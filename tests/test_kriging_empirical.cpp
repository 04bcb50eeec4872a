#include "kriging/empirical_variogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/errors.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;

TEST(Distances, L1AndL2) {
  EXPECT_DOUBLE_EQ(k::l1_distance({0.0, 0.0}, {3.0, 4.0}), 7.0);
  EXPECT_DOUBLE_EQ(k::l1_distance({1.0}, {1.0}), 0.0);
  EXPECT_THROW((void)k::l1_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// l1_distance is a constant of an empty, trivially copyable type: passing
// it carries no state, so every EmpiricalVariogram and KrigingSystem
// measures with the same metric.
TEST(Distances, L1DistanceIsAStatelessFunctionObject) {
  static_assert(std::is_empty_v<k::L1Distance>);
  static_assert(std::is_trivially_copyable_v<k::L1Distance>);
  static_assert(std::is_same_v<decltype(k::l1_distance), const k::L1Distance>);
  static_assert(
      std::is_invocable_r_v<double, const k::L1Distance&,
                            const std::vector<double>&,
                            const std::vector<double>&>);
  const k::L1Distance copy = k::l1_distance;
  const k::L1Distance fresh{};
  const std::vector<double> a = {0.5, -2.0, 3.0};
  const std::vector<double> b = {1.5, 2.0, -1.0};
  EXPECT_EQ(copy(a, b), k::l1_distance(a, b));
  EXPECT_EQ(fresh(a, b), 9.0);
}

TEST(Distances, L1DistanceIsSymmetricAndObeysTheTriangleInequality) {
  // Lattice coordinates keep every sum exact, so the metric axioms hold
  // without rounding slack.
  ace::util::Rng rng(31);
  const auto lattice_point = [&rng] {
    std::vector<double> p(5);
    for (auto& x : p) x = static_cast<double>(rng.uniform_int(-8, 8));
    return p;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = lattice_point();
    const auto b = lattice_point();
    const auto c = lattice_point();
    EXPECT_EQ(k::l1_distance(a, a), 0.0);
    EXPECT_EQ(k::l1_distance(a, b), k::l1_distance(b, a));
    EXPECT_GE(k::l1_distance(a, b), 0.0);
    EXPECT_LE(k::l1_distance(a, c),
              k::l1_distance(a, b) + k::l1_distance(b, c));
  }
}

TEST(EmpiricalVariogram, HandComputedTwoPoints) {
  // Two samples at L1 distance 2 with values 1 and 3:
  // γ̂(2) = (3−1)² / (2·1) = 2.
  const std::vector<std::vector<double>> pts = {{0.0, 0.0}, {1.0, 1.0}};
  const std::vector<double> vals = {1.0, 3.0};
  k::EmpiricalVariogram ev(pts, vals);
  ASSERT_EQ(ev.bins().size(), 1u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].distance, 2.0);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.0);
  EXPECT_EQ(ev.bins()[0].pair_count, 1u);
  EXPECT_EQ(ev.total_pairs(), 1u);
  EXPECT_DOUBLE_EQ(ev.max_distance(), 2.0);
}

TEST(EmpiricalVariogram, HandComputedThreeCollinearPoints) {
  // Points 0, 1, 2 on a line with values 0, 1, 4.
  // Pairs at d=1: (0,1): (1)², (1,2): (3)² → γ̂(1) = (1+9)/(2·2) = 2.5.
  // Pair at d=2: (0,2): (4)² → γ̂(2) = 16/2 = 8.
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}};
  const std::vector<double> vals = {0.0, 1.0, 4.0};
  k::EmpiricalVariogram ev(pts, vals);
  ASSERT_EQ(ev.bins().size(), 2u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.5);
  EXPECT_EQ(ev.bins()[0].pair_count, 2u);
  EXPECT_DOUBLE_EQ(ev.bins()[1].gamma, 8.0);
  EXPECT_EQ(ev.total_pairs(), 3u);
}

TEST(EmpiricalVariogram, FlatFieldHasZeroGamma) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {5.0}};
  const std::vector<double> vals = {2.0, 2.0, 2.0};
  k::EmpiricalVariogram ev(pts, vals);
  for (const auto& bin : ev.bins()) EXPECT_DOUBLE_EQ(bin.gamma, 0.0);
  EXPECT_DOUBLE_EQ(ev.value_variance(), 0.0);
}

TEST(EmpiricalVariogram, ValueVarianceIsSampleVariance) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}, {3.0}};
  const std::vector<double> vals = {1.0, 2.0, 3.0, 4.0};
  k::EmpiricalVariogram ev(pts, vals);
  EXPECT_NEAR(ev.value_variance(), 5.0 / 3.0, 1e-12);
}

TEST(EmpiricalVariogram, WideBinsGroupDistances) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}};
  const std::vector<double> vals = {0.0, 1.0, 4.0};
  // With bin_width 5, all three pairs fall in one bin.
  k::EmpiricalVariogram ev(pts, vals, k::l1_distance, 5.0);
  ASSERT_EQ(ev.bins().size(), 1u);
  EXPECT_EQ(ev.bins()[0].pair_count, 3u);
  // γ̂ = (1 + 9 + 16) / (2·3).
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 26.0 / 6.0);
  // Representative distance is the mean pair distance (1+1+2)/3.
  EXPECT_NEAR(ev.bins()[0].distance, 4.0 / 3.0, 1e-12);
}

TEST(EmpiricalVariogram, Validation) {
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}}, {1.0}), std::invalid_argument);
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}, {1.0}}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      k::EmpiricalVariogram({{0.0}, {1.0}}, {1.0, 2.0}, k::l1_distance, 0.0),
      std::invalid_argument);
}

TEST(EmpiricalVariogram, DiagonalPairIsBinnedAtItsL1Distance) {
  // A 3-4 diagonal: L1 puts the pair at 7, where a Euclidean metric would
  // put it at 5.
  const std::vector<std::vector<double>> pts = {{0.0, 0.0}, {3.0, 4.0}};
  const std::vector<double> vals = {0.0, 2.0};
  k::EmpiricalVariogram ev(pts, vals, k::l1_distance);
  ASSERT_EQ(ev.bins().size(), 1u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].distance, 7.0);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.0);
  EXPECT_DOUBLE_EQ(ev.max_distance(), 7.0);
}

TEST(EmpiricalVariogram, ExtendFromEmptyAccumulates) {
  k::EmpiricalVariogram ev;
  EXPECT_EQ(ev.sample_count(), 0u);
  EXPECT_TRUE(ev.bins().empty());

  ev.extend({{0.0}, {1.0}}, {0.0, 1.0});
  EXPECT_EQ(ev.sample_count(), 2u);
  EXPECT_EQ(ev.total_pairs(), 1u);

  ev.extend({{2.0}}, {4.0});
  EXPECT_EQ(ev.sample_count(), 3u);
  EXPECT_EQ(ev.total_pairs(), 3u);
  // Matches the hand-computed three-collinear-points case exactly.
  ASSERT_EQ(ev.bins().size(), 2u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.5);
  EXPECT_DOUBLE_EQ(ev.bins()[1].gamma, 8.0);
  EXPECT_DOUBLE_EQ(ev.max_distance(), 2.0);
}

TEST(EmpiricalVariogram, ExtendInChunksMatchesOneShotBuild) {
  // 40 random 3-d points folded in as 7 + 13 + 20 must produce the same
  // variogram as the one-shot constructor over all 40.
  ace::util::Rng rng(2024);
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_int(0, 12)),
                   static_cast<double>(rng.uniform_int(0, 12)),
                   static_cast<double>(rng.uniform_int(0, 12))});
    vals.push_back(rng.uniform(-5.0, 5.0));
  }
  const k::EmpiricalVariogram oneshot(pts, vals);

  k::EmpiricalVariogram chunked;
  std::size_t at = 0;
  for (const std::size_t chunk : {7u, 13u, 20u}) {
    chunked.extend(
        std::vector<std::vector<double>>(pts.begin() + static_cast<long>(at),
                                         pts.begin() +
                                             static_cast<long>(at + chunk)),
        std::vector<double>(vals.begin() + static_cast<long>(at),
                            vals.begin() + static_cast<long>(at + chunk)));
    at += chunk;
  }

  EXPECT_EQ(chunked.sample_count(), oneshot.sample_count());
  EXPECT_EQ(chunked.total_pairs(), oneshot.total_pairs());
  EXPECT_DOUBLE_EQ(chunked.max_distance(), oneshot.max_distance());
  EXPECT_NEAR(chunked.value_variance(), oneshot.value_variance(), 1e-12);
  ASSERT_EQ(chunked.bins().size(), oneshot.bins().size());
  for (std::size_t b = 0; b < oneshot.bins().size(); ++b) {
    EXPECT_EQ(chunked.bins()[b].pair_count, oneshot.bins()[b].pair_count);
    EXPECT_NEAR(chunked.bins()[b].distance, oneshot.bins()[b].distance,
                1e-12);
    EXPECT_NEAR(chunked.bins()[b].gamma, oneshot.bins()[b].gamma, 1e-12);
  }
}

TEST(EmpiricalVariogram, ExtendValidatesSizes) {
  k::EmpiricalVariogram ev;
  EXPECT_THROW(ev.extend({{0.0}, {1.0}}, {1.0}), std::invalid_argument);
}

TEST(EmpiricalVariogram, ExtendRejectsNonFiniteWithoutTouchingBins) {
  // Regression guard: one NaN sample used to poison every bin its pairs
  // fell into, silently degrading every estimate from then on. Now the
  // batch is validated up front and a bad batch leaves the accumulators
  // untouched.
  k::EmpiricalVariogram ev({{0.0}, {1.0}, {2.0}}, {0.0, 1.0, 4.0});
  const auto bins_before = ev.bins();
  const std::size_t pairs_before = ev.total_pairs();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ev.extend({{3.0}, {4.0}}, {2.0, nan}),
               ace::util::NonFiniteError);
  EXPECT_THROW(ev.extend({{3.0}}, {std::numeric_limits<double>::infinity()}),
               ace::util::NonFiniteError);
  EXPECT_THROW(ev.extend({{nan}}, {1.0}), ace::util::NonFiniteError);

  // Nothing was folded — not even the finite samples of the bad batch.
  EXPECT_EQ(ev.sample_count(), 3u);
  EXPECT_EQ(ev.total_pairs(), pairs_before);
  ASSERT_EQ(ev.bins().size(), bins_before.size());
  for (std::size_t b = 0; b < bins_before.size(); ++b) {
    EXPECT_DOUBLE_EQ(ev.bins()[b].gamma, bins_before[b].gamma);
    EXPECT_EQ(ev.bins()[b].pair_count, bins_before[b].pair_count);
  }

  // A clean batch afterwards still folds normally.
  ev.extend({{3.0}}, {9.0});
  EXPECT_EQ(ev.sample_count(), 4u);
}

// ---------------------------------------------------------------------------
// Batched (SoA kernel) pairing against a per-pair fold.

/// Bitwise equality of two doubles (EXPECT_EQ on doubles would accept
/// 0.0 == -0.0 and reject NaN == NaN).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Everything extend() can change, read through the public surface.
struct State {
  std::vector<k::VariogramBin> bins;
  std::size_t samples = 0;
  std::size_t pairs = 0;
  double max_distance = 0.0;
  double variance = 0.0;
};

State state_of(const k::EmpiricalVariogram& ev) {
  return {ev.bins(), ev.sample_count(), ev.total_pairs(), ev.max_distance(),
          ev.value_variance()};
}

void expect_bitwise_equal(const State& a, const State& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(bits(a.max_distance), bits(b.max_distance));
  EXPECT_EQ(bits(a.variance), bits(b.variance));
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(bits(a.bins[i].distance), bits(b.bins[i].distance)) << i;
    EXPECT_EQ(bits(a.bins[i].gamma), bits(b.bins[i].gamma)) << i;
    EXPECT_EQ(a.bins[i].pair_count, b.bins[i].pair_count) << i;
  }
}

/// Folds `pts`/`vals` into `ev` in the given block sizes.
void extend_in_blocks(k::EmpiricalVariogram& ev,
                      const std::vector<std::vector<double>>& pts,
                      const std::vector<double>& vals,
                      const std::vector<std::size_t>& blocks) {
  std::size_t at = 0;
  for (const std::size_t n : blocks) {
    const auto first = static_cast<std::ptrdiff_t>(at);
    const auto last = static_cast<std::ptrdiff_t>(at + n);
    ev.extend({pts.begin() + first, pts.begin() + last},
              {vals.begin() + first, vals.begin() + last});
    at += n;
  }
  ASSERT_EQ(at, pts.size());
}

/// The fold extend() must reproduce, one pair at a time: every (j < k)
/// pair in sample order, its distance from l1_distance, binned into dense
/// [b·w, (b+1)·w) bins; Welford's running variance over the values.
State per_pair_fold(const std::vector<std::vector<double>>& pts,
                    const std::vector<double>& vals, double width) {
  struct Accum {
    double sum_sq_diff = 0.0;
    double sum_distance = 0.0;
    std::size_t pairs = 0;
  };
  std::vector<Accum> accum;
  State s;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::size_t k = 0; k < pts.size(); ++k) {
    for (std::size_t j = 0; j < k; ++j) {
      const double d = k::l1_distance(pts[j], pts[k]);
      const auto b = static_cast<std::size_t>(d / width);
      if (b >= accum.size()) accum.resize(b + 1);
      const double diff = vals[j] - vals[k];
      accum[b].sum_sq_diff += diff * diff;
      accum[b].sum_distance += d;
      ++accum[b].pairs;
      ++s.pairs;
      s.max_distance = std::max(s.max_distance, d);
    }
    const double n = static_cast<double>(k + 1);
    const double delta = vals[k] - mean;
    mean += delta / n;
    m2 += delta * (vals[k] - mean);
  }
  s.samples = pts.size();
  const double n = static_cast<double>(pts.size());
  s.variance = pts.size() > 1 ? m2 / (n - 1.0) : 0.0;
  for (const Accum& a : accum) {
    if (a.pairs == 0) continue;
    const double pairs = static_cast<double>(a.pairs);
    s.bins.push_back({a.sum_distance / pairs, a.sum_sq_diff / (2.0 * pairs),
                      a.pairs});
  }
  return s;
}

TEST(EmpiricalVariogram, KernelPathMatchesFunctorPathBitwise) {
  // The SoA kernel path, fed in blocks, must fold to the same bits as the
  // per-pair fold over all samples at once — lattice coordinates (the
  // policy's case) and fractional ones, with wide bins so that bins mix
  // distances and the accumulation order matters.
  ace::util::Rng rng(77);
  for (const bool lattice : {true, false}) {
    for (const double width : {1.0, 2.5}) {
      std::vector<std::vector<double>> pts;
      std::vector<double> vals;
      for (int i = 0; i < 90; ++i) {
        std::vector<double> p(23);
        for (auto& x : p)
          x = lattice ? static_cast<double>(rng.uniform_int(0, 16))
                      : rng.uniform(-4.0, 4.0);
        pts.push_back(p);
        vals.push_back(rng.uniform(-60.0, -20.0));
      }
      const std::vector<std::size_t> blocks = {1, 16, 5, 31, 37};
      k::EmpiricalVariogram kernel(k::l1_distance, width);
      extend_in_blocks(kernel, pts, vals, blocks);
      SCOPED_TRACE(lattice ? "lattice" : "fractional");
      expect_bitwise_equal(state_of(kernel), per_pair_fold(pts, vals, width));
    }
  }
}

// ---------------------------------------------------------------------------
// Bad pair distances: rejected before any bin changes.

/// Expects `bad` to throw E from extend() and leave `ev` bitwise as it was.
template <class E, class F>
void expect_rejected_untouched(k::EmpiricalVariogram& ev, F&& bad) {
  const State before = state_of(ev);
  EXPECT_THROW(bad(), E);
  expect_bitwise_equal(state_of(ev), before);
}

TEST(EmpiricalVariogram, ExtendRejectsL1DistanceOverflowingToInfinity) {
  // Every coordinate is finite, but |1e308 − (−1e308)| overflows to ∞ —
  // into an empty variogram, so that this is the block's only pair (any
  // held point would first meet the finite 1e308, which is out of range).
  k::EmpiricalVariogram ev;
  expect_rejected_untouched<ace::util::NonFiniteError>(ev, [&] {
    ev.extend({{1e308, 0.0}, {-1e308, 0.0}}, {1.0, 2.0});
  });
  EXPECT_EQ(ev.sample_count(), 0u);
  // The rejected block did not fix the dimension either.
  ev.extend({{2.0}, {3.0}}, {4.0, 5.0});
  EXPECT_EQ(ev.sample_count(), 2u);
  EXPECT_EQ(ev.total_pairs(), 1u);
}

TEST(EmpiricalVariogram, ExtendRejectsABadLastPairWithoutTouchingBins) {
  // Only the first pair of the block's last sample is bad, so the block's
  // earlier samples have already been paired and stored when it is seen:
  // the rejection must take all of them back out. The pair distance
  // overflows to ∞ in one case and leaves the dense bin range in the
  // other.
  const std::vector<std::vector<double>> held = {
      {0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  const std::vector<double> held_vals = {0.0, 1.0, 4.0};
  for (const bool overflow : {true, false}) {
    SCOPED_TRACE(overflow ? "overflow" : "out of range");
    k::EmpiricalVariogram ev(held, held_vals);
    const std::vector<double> last =
        overflow ? std::vector<double>{1e308, 1e308}
                 : std::vector<double>{1e9, 0.0};
    const auto bad = [&] {
      ev.extend({{3.0, 0.0}, {4.0, 0.0}, last}, {1.0, 2.0, 3.0});
    };
    if (overflow)
      expect_rejected_untouched<ace::util::NonFiniteError>(ev, bad);
    else
      expect_rejected_untouched<std::invalid_argument>(ev, bad);
    // A clean block still folds afterwards, onto the untouched state: the
    // result is the one-shot build of the four samples.
    ev.extend({{3.0, 0.0}}, {9.0});
    EXPECT_EQ(ev.sample_count(), 4u);
    EXPECT_EQ(ev.total_pairs(), 6u);
    const k::EmpiricalVariogram rebuilt(
        {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}},
        {0.0, 1.0, 4.0, 9.0});
    expect_bitwise_equal(state_of(ev), state_of(rebuilt));
  }
}

TEST(EmpiricalVariogram, ExtendRejectsDistancesBeyondTheDenseBinRange) {
  // Finite but huge: bins are dense, so this must be an error rather than
  // an allocation of 1e9 / bin_width bins.
  k::EmpiricalVariogram ev({{0.0}, {1.0}}, {0.0, 1.0});
  expect_rejected_untouched<std::invalid_argument>(
      ev, [&] { ev.extend({{1e9}}, {1.0}); });
  const double edge = static_cast<double>(k::EmpiricalVariogram::kMaxBins);
  expect_rejected_untouched<std::invalid_argument>(
      ev, [&] { ev.extend({{edge}}, {1.0}); });
  // Just inside the range is fine.
  ev.extend({{edge - 0.5}}, {1.0});
  EXPECT_EQ(ev.sample_count(), 3u);
  EXPECT_EQ(ev.bins().back().pair_count, 1u);
}

TEST(EmpiricalVariogram, ExtendRejectsMismatchedDimensionsUpFront) {
  k::EmpiricalVariogram ev({{0.0, 0.0}, {1.0, 1.0}}, {0.0, 1.0});
  expect_rejected_untouched<std::invalid_argument>(
      ev, [&] { ev.extend({{2.0, 2.0}, {3.0}}, {1.0, 2.0}); });
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}, {1.0, 1.0}}, {0.0, 1.0}),
               std::invalid_argument);
}

TEST(EmpiricalVariogram, RejectsNonFiniteBinWidth) {
  EXPECT_THROW(k::EmpiricalVariogram(k::l1_distance,
                                     std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(k::EmpiricalVariogram(k::l1_distance,
                                     std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

}  // namespace
