// Edge-path coverage across modules: fitter knobs and variogram binning
// with non-integer distances.
#include <gtest/gtest.h>

#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;

TEST(FitOptions, RestrictedFamilyListIsHonoured) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({static_cast<double>(i)});
    vals.push_back(0.5 * i);
  }
  const k::EmpiricalVariogram ev(pts, vals);
  k::FitOptions options;
  options.families = {k::ModelFamily::kSpherical};
  const auto all = k::fit_all(ev, options);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].family, k::ModelFamily::kSpherical);
  const auto best = k::fit_best(ev, options);
  EXPECT_EQ(best.family, k::ModelFamily::kSpherical);
}

TEST(FitOptions, TinyRangeGridStillFits) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  ace::util::Rng rng(200);
  double acc = 0.0;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({static_cast<double>(i)});
    acc = 0.6 * acc + rng.normal(0.0, 1.0);
    vals.push_back(acc);
  }
  const k::EmpiricalVariogram ev(pts, vals);
  k::FitOptions options;
  options.range_grid = 1;  // Clamped up internally to >= 2.
  const auto fit = k::fit_family(ev, k::ModelFamily::kExponential, options);
  ASSERT_NE(fit.model, nullptr);
  EXPECT_GE(fit.weighted_sse, 0.0);
}

TEST(EmpiricalVariogram, FractionalDistancesBinByWidth) {
  // Quarter-step coordinates off the lattice give fractional L1
  // distances; bin width 0.5 groups them deterministically.
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0}, {1.0, 0.0}, {0.5, 0.75}, {1.5, 0.75}};
  const std::vector<double> vals = {0.0, 1.0, 1.5, 2.5};
  const k::EmpiricalVariogram ev(pts, vals, k::l1_distance, 0.5);
  EXPECT_EQ(ev.total_pairs(), 6u);
  // Distances: {1 ×2, 1.25 ×3, 2.25 ×1}; width 0.5 puts 1 and 1.25 in the
  // same bin [1.0, 1.5) and 2.25 alone in [2.0, 2.5).
  ASSERT_EQ(ev.bins().size(), 2u);
  EXPECT_EQ(ev.bins()[0].pair_count, 5u);
  EXPECT_EQ(ev.bins()[1].pair_count, 1u);
  std::size_t total = 0;
  for (const auto& bin : ev.bins()) total += bin.pair_count;
  EXPECT_EQ(total, 6u);
  EXPECT_NEAR(ev.max_distance(), 2.25, 1e-12);
}

}  // namespace
