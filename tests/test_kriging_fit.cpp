#include "kriging/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;

/// Builds an empirical variogram from 1-D samples of a function.
k::EmpiricalVariogram variogram_of(const std::function<double(double)>& f,
                                   int n_points) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < n_points; ++i) {
    pts.push_back({static_cast<double>(i)});
    vals.push_back(f(static_cast<double>(i)));
  }
  return k::EmpiricalVariogram(pts, vals);
}

TEST(FamilyName, CoversAllFamilies) {
  EXPECT_EQ(k::family_name(k::ModelFamily::kLinear), "linear");
  EXPECT_EQ(k::family_name(k::ModelFamily::kSpherical), "spherical");
  EXPECT_EQ(k::family_name(k::ModelFamily::kExponential), "exponential");
  EXPECT_EQ(k::family_name(k::ModelFamily::kGaussian), "gaussian");
  EXPECT_EQ(k::family_name(k::ModelFamily::kPower), "power");
}

TEST(FitLinear, RecoversLinearTrendVariogram) {
  // λ(x) = 2x gives γ̂(d) = 2d² — convex growth the linear model tracks
  // with a positive slope.
  const auto ev = variogram_of([](double x) { return 2.0 * x; }, 12);
  const auto fit = k::fit_family(ev, k::ModelFamily::kLinear);
  EXPECT_EQ(fit.family, k::ModelFamily::kLinear);
  ASSERT_NE(fit.model, nullptr);
  // γ̂(d) = (2d)²/2 = 2d²: convex, so the linear fit has positive slope.
  const auto* linear = dynamic_cast<k::LinearVariogram*>(fit.model.get());
  ASSERT_NE(linear, nullptr);
  EXPECT_GT(linear->slope(), 0.0);
}

TEST(FitFlatField, AllFamiliesDegradeGracefully) {
  const auto ev = variogram_of([](double) { return 5.0; }, 10);
  for (const auto family :
       {k::ModelFamily::kLinear, k::ModelFamily::kSpherical,
        k::ModelFamily::kExponential, k::ModelFamily::kGaussian,
        k::ModelFamily::kPower}) {
    const auto fit = k::fit_family(ev, family);
    ASSERT_NE(fit.model, nullptr) << k::family_name(family);
    EXPECT_DOUBLE_EQ(fit.weighted_sse, 0.0);
    // Fitted model must be identically ~0.
    for (double d : {1.0, 3.0, 7.0})
      EXPECT_NEAR(fit.model->gamma(d), 0.0, 1e-9);
  }
}

TEST(FitBounded, RecoversSphericalSill) {
  // Synthesize an empirical variogram directly from a spherical model by
  // sampling a function whose increments follow it approximately: easier —
  // fit against bins manufactured from the model itself via a field with
  // matching structure is noisy; instead check SSE ordering below.
  const k::SphericalVariogram truth(0.0, 2.0, 6.0);
  // Build bins by hand: points on a line, values via a deterministic
  // profile whose variogram equals the model at small lags is hard; use
  // the fitter's own objective: generate bins from the true model.
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  // Trick: for a *strictly increasing* 1-D profile v(x), γ̂(d) over a long
  // line approaches the average of (v(x+d)−v(x))²/2. Choose v so this
  // matches the spherical shape loosely; the test then only asserts that
  // the bounded families with a sill fit better than linear when the
  // empirical variogram saturates.
  const int n = 40;
  ace::util::Rng rng(11);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i)});
    // Bounded random walk saturates the variogram.
    acc = 0.7 * acc + rng.normal(0.0, 1.0);
    vals.push_back(acc);
  }
  k::EmpiricalVariogram ev(pts, vals);
  const auto all = k::fit_all(ev);
  ASSERT_FALSE(all.empty());
  // Results are sorted by SSE.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LE(all[i - 1].weighted_sse, all[i].weighted_sse);
  // A saturating (AR(1)) field: exponential/spherical/gaussian should beat
  // the unbounded linear model.
  const auto best = k::fit_best(ev);
  EXPECT_NE(best.family, k::ModelFamily::kLinear);
}

TEST(FitAll, ReturnsEveryRequestedFamily) {
  const auto ev = variogram_of([](double x) { return std::sqrt(x); }, 15);
  k::FitOptions options;
  const auto all = k::fit_all(ev, options);
  EXPECT_EQ(all.size(), options.families.size());
  for (const auto& fit : all) ASSERT_NE(fit.model, nullptr);
}

TEST(FitPower, NeverWorseThanLinear) {
  // The power family's exponent grid includes p = 1.0, which spans the
  // linear model — so its weighted SSE can never exceed linear's.
  for (int profile = 0; profile < 3; ++profile) {
    const auto ev = variogram_of(
        [profile](double x) {
          switch (profile) {
            case 0: return std::sqrt(x + 1.0);
            case 1: return 0.3 * x;
            default: return 0.05 * x * x;
          }
        },
        18);
    const auto power = k::fit_family(ev, k::ModelFamily::kPower);
    const auto linear = k::fit_family(ev, k::ModelFamily::kLinear);
    EXPECT_LE(power.weighted_sse, linear.weighted_sse + 1e-9)
        << "profile " << profile;
  }
}

TEST(Fit, ThrowsOnEmptyVariogram) {
  // Cannot construct an EmpiricalVariogram with < 2 points, so build one
  // and steal its type via a direct call with zero bins is impossible —
  // the validation happens in fit_family via the bin check. Validate the
  // EmpiricalVariogram precondition instead.
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}}, {1.0}), std::invalid_argument);
}

TEST(FitBest, PrefersLowestSse) {
  const auto ev = variogram_of([](double x) { return x * x * 0.1; }, 12);
  const auto all = k::fit_all(ev);
  const auto best = k::fit_best(ev);
  EXPECT_DOUBLE_EQ(best.weighted_sse, all.front().weighted_sse);
}

TEST(FitBest, PinnedOnALatticeVariogram) {
  // Bit-level regression pin: the fitted family and parameters of a fixed
  // 6-d lattice variogram, folded in three blocks, as hexfloats. Any change
  // to the pairing, the binning or the fit's arithmetic order shows here.
  ace::util::Rng rng(1337);
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < 120; ++i) {
    std::vector<double> p(6);
    double s = 0.0;
    for (auto& x : p) {
      x = static_cast<double>(rng.uniform_int(0, 12));
      s += x;
    }
    pts.push_back(p);
    vals.push_back(-2.5 * s + 0.1 * p[0] * p[1] + rng.normal(0.0, 1.5));
  }
  k::EmpiricalVariogram ev;
  for (const auto& [first, last] :
       {std::pair{0, 17}, std::pair{17, 64}, std::pair{64, 120}})
    ev.extend({pts.begin() + first, pts.begin() + last},
              {vals.begin() + first, vals.begin() + last});
  ASSERT_EQ(ev.bins().size(), 51u);
  ASSERT_EQ(ev.total_pairs(), 7140u);
  EXPECT_EQ(ev.max_distance(), 0x1.b8p+5);
  EXPECT_EQ(ev.value_variance(), 0x1.c9a502a1c626fp+8);

  const auto best = k::fit_best(ev);
  ASSERT_EQ(best.family, k::ModelFamily::kPower);
  const auto* power = dynamic_cast<const k::PowerVariogram*>(best.model.get());
  ASSERT_NE(power, nullptr);
  EXPECT_EQ(best.weighted_sse, 0x1.62820333f0c9dp+25);
  EXPECT_EQ(power->nugget(), 0x1.3b63039e4c55cp+3);
  EXPECT_EQ(power->scale(), 0x1.247c3447e9e12p+1);
  EXPECT_EQ(power->exponent(), 0x1.999999999999ap+0);

  // Every family's fit, in ascending SSE order.
  const auto all = k::fit_all(ev);
  const std::vector<std::pair<k::ModelFamily, double>> expected = {
      {k::ModelFamily::kPower, 0x1.62820333f0c9dp+25},
      {k::ModelFamily::kGaussian, 0x1.6b1e8e699684ap+25},
      {k::ModelFamily::kLinear, 0x1.37c3c464ab1d8p+26},
      {k::ModelFamily::kSpherical, 0x1.436003a31cf42p+26},
      {k::ModelFamily::kExponential, 0x1.c5c77e492707fp+26}};
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].family, expected[i].first) << i;
    EXPECT_EQ(all[i].weighted_sse, expected[i].second) << i;
  }
  const auto* gaussian =
      dynamic_cast<const k::GaussianVariogram*>(all[1].model.get());
  ASSERT_NE(gaussian, nullptr);
  EXPECT_EQ(gaussian->nugget(), 0x1.38a4647711547p+6);
  EXPECT_EQ(gaussian->sill(), 0x1.2c43ce9cf83a8p+12);
  EXPECT_EQ(gaussian->range(), 0x1.4ap+7);
  const auto* linear =
      dynamic_cast<const k::LinearVariogram*>(all[2].model.get());
  ASSERT_NE(linear, nullptr);
  EXPECT_EQ(linear->nugget(), 0.0);
  EXPECT_EQ(linear->slope(), 0x1.208b2726a5a51p+4);
}

}  // namespace
