#include "metrics/noise_power.hpp"

#include <cmath>
#include <stdexcept>

namespace ace::metrics {

double noise_power(const std::vector<double>& approx,
                   const std::vector<double>& reference) {
  if (approx.size() != reference.size())
    throw std::invalid_argument("noise_power: size mismatch");
  if (approx.empty()) throw std::invalid_argument("noise_power: empty input");
  double acc = 0.0;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    const double e = approx[i] - reference[i];
    acc += e * e;
  }
  return acc / static_cast<double>(approx.size());
}

double noise_power_complex(const std::vector<double>& approx_re,
                           const std::vector<double>& approx_im,
                           const std::vector<double>& ref_re,
                           const std::vector<double>& ref_im) {
  if (approx_re.size() != approx_im.size() ||
      ref_re.size() != ref_im.size() || approx_re.size() != ref_re.size())
    throw std::invalid_argument("noise_power_complex: size mismatch");
  if (approx_re.empty())
    throw std::invalid_argument("noise_power_complex: empty input");
  double acc = 0.0;
  for (std::size_t i = 0; i < approx_re.size(); ++i) {
    const double er = approx_re[i] - ref_re[i];
    const double ei = approx_im[i] - ref_im[i];
    acc += er * er + ei * ei;
  }
  return acc / static_cast<double>(approx_re.size());
}

double to_db(double power_linear) {
  constexpr double kFloorDb = -400.0;
  if (power_linear <= 0.0) return kFloorDb;
  const double db = 10.0 * std::log10(power_linear);
  return db < kFloorDb ? kFloorDb : db;
}

}  // namespace ace::metrics
