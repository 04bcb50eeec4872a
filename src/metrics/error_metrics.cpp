#include "metrics/error_metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace ace::metrics {

double epsilon_relative(double lambda_hat, double lambda_true) {
  // Guard against exact division by zero, not near-zero references.
  if (lambda_true == 0.0)  // ace-lint: allow(float-equality)
    throw std::invalid_argument("epsilon_relative: reference value is zero");
  return std::abs(lambda_hat - lambda_true) / std::abs(lambda_true);
}

}  // namespace ace::metrics
