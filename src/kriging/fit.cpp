#include "kriging/fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/contract.hpp"

namespace ace::kriging {

std::string family_name(ModelFamily family) {
  switch (family) {
    case ModelFamily::kLinear: return "linear";
    case ModelFamily::kSpherical: return "spherical";
    case ModelFamily::kExponential: return "exponential";
    case ModelFamily::kGaussian: return "gaussian";
    case ModelFamily::kPower: return "power";
  }
  return "unknown";
}

namespace {

struct WeightedFit {
  double nugget = 0.0;
  double scale = 0.0;  // sill or slope, depending on basis.
  double sse = std::numeric_limits<double>::infinity();
};

/// Weighted LS of γ̂ ≈ nugget + scale·basis(d) with both coefficients
/// clamped to >= 0 (a variogram must be non-negative and non-decreasing for
/// our basis choices). Solves the 2x2 normal equations directly and falls
/// back to the boundary solutions when a coefficient goes negative.
/// basis(d) is evaluated once per bin and reused by every SSE evaluation.
template <class Basis>
WeightedFit fit_basis(const std::vector<VariogramBin>& bins, Basis basis) {
  std::vector<double> basis_values(bins.size());
  double sw = 0.0, sb = 0.0, sbb = 0.0, sg = 0.0, sbg = 0.0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const VariogramBin& bin = bins[i];
    const double w = static_cast<double>(bin.pair_count);
    const double b = basis(bin.distance);
    basis_values[i] = b;
    sw += w;
    sb += w * b;
    sbb += w * b * b;
    sg += w * bin.gamma;
    sbg += w * b * bin.gamma;
  }
  auto sse_for = [&](double nugget, double scale) {
    double acc = 0.0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const double r = bins[i].gamma - (nugget + scale * basis_values[i]);
      acc += static_cast<double>(bins[i].pair_count) * r * r;
    }
    return acc;
  };

  WeightedFit best;
  const double det = sw * sbb - sb * sb;
  if (std::abs(det) > 1e-30) {
    const double nugget = (sg * sbb - sb * sbg) / det;
    const double scale = (sw * sbg - sb * sg) / det;
    if (nugget >= 0.0 && scale >= 0.0) {
      best = {nugget, scale, sse_for(nugget, scale)};
      return best;
    }
  }
  // Boundary: nugget = 0.
  if (sbb > 0.0) {
    const double scale = std::max(0.0, sbg / sbb);
    const double sse = sse_for(0.0, scale);
    if (sse < best.sse) best = {0.0, scale, sse};
  }
  // Boundary: scale = 0 (flat).
  if (sw > 0.0) {
    const double nugget = std::max(0.0, sg / sw);
    const double sse = sse_for(nugget, 0.0);
    if (sse < best.sse) best = {nugget, 0.0, sse};
  }
  if (!std::isfinite(best.sse)) best = {0.0, 0.0, sse_for(0.0, 0.0)};
  return best;
}

FitResult make_result(std::unique_ptr<VariogramModel> model,
                      ModelFamily family, double sse) {
  FitResult r;
  r.model = std::move(model);
  r.family = family;
  r.weighted_sse = sse;
  ACE_ENSURE(std::isfinite(r.weighted_sse) && r.weighted_sse >= 0.0,
             "weighted SSE is a sum of weighted squares");
#if ACE_CONTRACTS_ENABLED
  // Monotonicity spot-check: every family we fit (non-negative nugget +
  // non-negative scale on a non-decreasing basis) must yield a
  // non-decreasing γ — a decreasing variogram would claim that far-apart
  // samples agree better than close ones.
  {
    double prev = r.model->gamma(0.0);
    for (const double d : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
      const double g = r.model->gamma(d);
      ACE_ENSURE(g >= prev - 1e-12, "fitted variogram must be non-decreasing");
      prev = g;
    }
  }
#endif
  return r;
}

}  // namespace

FitResult fit_family(const EmpiricalVariogram& ev, ModelFamily family,
                     const FitOptions& options) {
  const auto& bins = ev.bins();
  if (bins.empty())
    throw std::invalid_argument("fit_family: empirical variogram has no bins");

  const double dmax = std::max(ev.max_distance(), 1e-12);

  switch (family) {
    case ModelFamily::kLinear: {
      const auto fit = fit_basis(bins, [](double d) { return d; });
      return make_result(
          std::make_unique<LinearVariogram>(fit.nugget, fit.scale), family,
          fit.sse);
    }
    case ModelFamily::kPower: {
      WeightedFit best;
      double best_p = 1.0;
      for (int i = 1; i <= 18; ++i) {
        const double p = 0.1 * static_cast<double>(i);  // 0.1 .. 1.8
        const auto fit =
            fit_basis(bins, [p](double d) { return std::pow(d, p); });
        if (fit.sse < best.sse) {
          best = fit;
          best_p = p;
        }
      }
      return make_result(
          std::make_unique<PowerVariogram>(best.nugget, best.scale, best_p),
          family, best.sse);
    }
    case ModelFamily::kSpherical:
    case ModelFamily::kExponential:
    case ModelFamily::kGaussian: {
      WeightedFit best;
      double best_range = dmax;
      const int grid = std::max(options.range_grid, 2);
      for (int i = 1; i <= grid; ++i) {
        // Ranges from a fraction of the max lag to well past it.
        const double range =
            dmax * (0.25 + 2.75 * static_cast<double>(i) /
                               static_cast<double>(grid));
        WeightedFit fit;
        if (family == ModelFamily::kSpherical) {
          fit = fit_basis(bins, [range](double d) {
            const double h = d / range;
            return h >= 1.0 ? 1.0 : 1.5 * h - 0.5 * h * h * h;
          });
        } else if (family == ModelFamily::kExponential) {
          fit = fit_basis(bins, [range](double d) {
            return 1.0 - std::exp(-3.0 * d / range);
          });
        } else {
          fit = fit_basis(bins, [range](double d) {
            const double h = d / range;
            return 1.0 - std::exp(-3.0 * h * h);
          });
        }
        if (fit.sse < best.sse) {
          best = fit;
          best_range = range;
        }
      }
      std::unique_ptr<VariogramModel> model;
      if (family == ModelFamily::kSpherical)
        model = std::make_unique<SphericalVariogram>(best.nugget, best.scale,
                                                     best_range);
      else if (family == ModelFamily::kExponential)
        model = std::make_unique<ExponentialVariogram>(best.nugget, best.scale,
                                                       best_range);
      else
        model = std::make_unique<GaussianVariogram>(best.nugget, best.scale,
                                                    best_range);
      return make_result(std::move(model), family, best.sse);
    }
  }
  throw std::logic_error("fit_family: unreachable");
}

std::vector<FitResult> fit_all(const EmpiricalVariogram& ev,
                               const FitOptions& options) {
  std::vector<FitResult> results;
  results.reserve(options.families.size());
  for (const auto family : options.families)
    results.push_back(fit_family(ev, family, options));
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.weighted_sse < b.weighted_sse;
            });
  return results;
}

FitResult fit_best(const EmpiricalVariogram& ev, const FitOptions& options) {
  auto all = fit_all(ev, options);
  if (all.empty()) throw std::invalid_argument("fit_best: no families");
  return std::move(all.front());
}

}  // namespace ace::kriging
