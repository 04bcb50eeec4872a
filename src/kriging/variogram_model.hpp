// Parametric semi-variogram models γ(d).
//
// The paper (Sec. III-A) identifies the empirical semi-variogram with "a
// particular type of semi-variogram [19]"; the classical catalogue from
// Wackernagel's Geostatistics is implemented here: linear, spherical,
// exponential, gaussian and power models, all with an optional nugget.
// Every model satisfies γ(0) = nugget >= 0 and is non-decreasing for the
// parameter ranges enforced by the constructors.
#pragma once

#include <memory>
#include <string>

namespace ace::kriging {

/// Interface of a fitted semi-variogram model.
class VariogramModel {
 public:
  virtual ~VariogramModel() = default;

  /// Semi-variance at distance d >= 0 (callers pass non-negative d;
  /// negative input throws std::invalid_argument).
  virtual double gamma(double d) const = 0;

  /// Model family name ("spherical", ...).
  virtual std::string name() const = 0;

  /// Human-readable description with parameter values.
  virtual std::string describe() const = 0;

  virtual std::unique_ptr<VariogramModel> clone() const = 0;

  /// Fitted nugget — the discontinuity γ(0) at the origin. Every model in
  /// the catalogue satisfies γ(0) = nugget, so the default forwards there;
  /// concrete models return the parameter directly.
  virtual double nugget() const { return gamma(0.0); }

 protected:
  static void check_distance(double d);
};

/// γ(d) = nugget + slope·d. The unbounded default; safe for any metric.
class LinearVariogram final : public VariogramModel {
 public:
  /// nugget >= 0, slope >= 0; throws std::invalid_argument otherwise.
  LinearVariogram(double nugget, double slope);
  double gamma(double d) const override;
  std::string name() const override { return "linear"; }
  std::string describe() const override;
  std::unique_ptr<VariogramModel> clone() const override;
  double nugget() const override { return nugget_; }
  double slope() const { return slope_; }

 private:
  double nugget_;
  double slope_;
};

/// γ(d) = nugget + sill·(1.5·h − 0.5·h³) for h = d/range < 1, else
/// nugget + sill. The classical bounded model.
class SphericalVariogram final : public VariogramModel {
 public:
  /// nugget, sill >= 0; range > 0.
  SphericalVariogram(double nugget, double sill, double range);
  double gamma(double d) const override;
  std::string name() const override { return "spherical"; }
  std::string describe() const override;
  std::unique_ptr<VariogramModel> clone() const override;
  double nugget() const override { return nugget_; }
  double sill() const { return sill_; }
  double range() const { return range_; }

 private:
  double nugget_;
  double sill_;
  double range_;
};

/// γ(d) = nugget + sill·(1 − exp(−3d/range)).
class ExponentialVariogram final : public VariogramModel {
 public:
  ExponentialVariogram(double nugget, double sill, double range);
  double gamma(double d) const override;
  std::string name() const override { return "exponential"; }
  std::string describe() const override;
  std::unique_ptr<VariogramModel> clone() const override;
  double nugget() const override { return nugget_; }
  double sill() const { return sill_; }
  double range() const { return range_; }

 private:
  double nugget_;
  double sill_;
  double range_;
};

/// γ(d) = nugget + sill·(1 − exp(−3(d/range)²)). Very smooth near 0.
class GaussianVariogram final : public VariogramModel {
 public:
  GaussianVariogram(double nugget, double sill, double range);
  double gamma(double d) const override;
  std::string name() const override { return "gaussian"; }
  std::string describe() const override;
  std::unique_ptr<VariogramModel> clone() const override;
  double nugget() const override { return nugget_; }
  double sill() const { return sill_; }
  double range() const { return range_; }

 private:
  double nugget_;
  double sill_;
  double range_;
};

/// γ(d) = nugget + scale·d^exponent, exponent in (0, 2).
class PowerVariogram final : public VariogramModel {
 public:
  PowerVariogram(double nugget, double scale, double exponent);
  double gamma(double d) const override;
  std::string name() const override { return "power"; }
  std::string describe() const override;
  std::unique_ptr<VariogramModel> clone() const override;
  double nugget() const override { return nugget_; }
  double scale() const { return scale_; }
  double exponent() const { return exponent_; }

 private:
  double nugget_;
  double scale_;
  double exponent_;
};

}  // namespace ace::kriging
