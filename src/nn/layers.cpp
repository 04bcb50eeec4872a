#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ace::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      weights_(out_channels * in_channels * kernel * kernel, 0.0),
      bias_(out_channels, 0.0) {
  if (in_channels == 0 || out_channels == 0)
    throw std::invalid_argument("Conv2d: channels must be positive");
  if (kernel == 0 || kernel % 2 == 0)
    throw std::invalid_argument("Conv2d: kernel must be odd and positive");
}

void Conv2d::init_weights(util::Rng& rng) {
  const double fan_in = static_cast<double>(in_c_ * k_ * k_);
  const double scale = std::sqrt(2.0 / fan_in);
  for (auto& w : weights_) w = rng.normal(0.0, scale);
  for (auto& b : bias_) b = rng.normal(0.0, 0.05);
}

Tensor Conv2d::forward(const Tensor& input) const {
  if (input.channels() != in_c_)
    throw std::invalid_argument("Conv2d::forward: channel mismatch");
  const std::size_t h = input.height();
  const std::size_t w = input.width();
  const std::size_t pad = k_ / 2;
  Tensor out(out_c_, h, w);

  // Each output starts at its bias and adds its in-range taps in
  // (ic, ky, kx) order, exactly as a per-pixel loop would; the nest is only
  // turned so that the innermost loop is a contiguous axpy over x, with
  // each tap's valid output rectangle computed up front.
  const std::size_t plane = h * w;
  const double* in = input.data();
  double* o = out.data();
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    double* oplane = o + oc * plane;
    std::fill(oplane, oplane + plane, bias_[oc]);
    for (std::size_t ic = 0; ic < in_c_; ++ic) {
      const double* iplane = in + ic * plane;
      const double* wbase = &weights_[((oc * in_c_ + ic) * k_) * k_];
      for (std::size_t ky = 0; ky < k_; ++ky) {
        // Output rows whose source row y + ky - pad lies in [0, h).
        const std::size_t y0 = ky < pad ? pad - ky : 0;
        const std::size_t y1 = h + pad > ky ? std::min(h, h + pad - ky) : 0;
        for (std::size_t kx = 0; kx < k_; ++kx) {
          const double wv = wbase[ky * k_ + kx];
          const std::size_t x0 = kx < pad ? pad - kx : 0;
          const std::size_t x1 = w + pad > kx ? std::min(w, w + pad - kx) : 0;
          for (std::size_t y = y0; y < y1; ++y) {
            double* orow = oplane + y * w;
            const double* irow = iplane + (y + ky - pad) * w;
            for (std::size_t x = x0; x < x1; ++x)
              orow[x] += wv * irow[x + kx - pad];
          }
        }
      }
    }
  }
  return out;
}

void relu_inplace(Tensor& t) {
  for (auto& x : t.flat()) x = std::max(x, 0.0);
}

Tensor max_pool2(const Tensor& input) {
  if (input.height() % 2 != 0 || input.width() % 2 != 0)
    throw std::invalid_argument("max_pool2: spatial dims must be even");
  const std::size_t h = input.height() / 2;
  const std::size_t w = input.width() / 2;
  Tensor out(input.channels(), h, w);
  const std::size_t in_w = input.width();
  const double* in = input.data();
  double* o = out.data();
  for (std::size_t c = 0; c < input.channels(); ++c)
    for (std::size_t y = 0; y < h; ++y) {
      const double* top = in + (c * input.height() + 2 * y) * in_w;
      const double* bottom = top + in_w;
      for (std::size_t x = 0; x < w; ++x) {
        const double a = top[2 * x];
        const double b = top[2 * x + 1];
        const double d = bottom[2 * x];
        const double e = bottom[2 * x + 1];
        o[(c * h + y) * w + x] = std::max(std::max(a, b), std::max(d, e));
      }
    }
  return out;
}

std::vector<double> global_avg_pool(const Tensor& input) {
  std::vector<double> out(input.channels(), 0.0);
  const double denom =
      static_cast<double>(input.height() * input.width());
  for (std::size_t c = 0; c < input.channels(); ++c) {
    double acc = 0.0;
    for (std::size_t y = 0; y < input.height(); ++y)
      for (std::size_t x = 0; x < input.width(); ++x)
        acc += input.at(c, y, x);
    out[c] = acc / denom;
  }
  return out;
}

std::vector<double> softmax(const std::vector<double>& logits) {
  if (logits.empty()) throw std::invalid_argument("softmax: empty input");
  const double peak = *std::max_element(logits.begin(), logits.end());
  std::vector<double> out(logits.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - peak);
    denom += out[i];
  }
  for (auto& p : out) p /= denom;
  return out;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  if (a.height() != b.height() || a.width() != b.width())
    throw std::invalid_argument("concat_channels: spatial mismatch");
  Tensor out(a.channels() + b.channels(), a.height(), a.width());
  std::copy(a.flat().begin(), a.flat().end(), out.flat().begin());
  std::copy(b.flat().begin(), b.flat().end(),
            out.flat().begin() + static_cast<std::ptrdiff_t>(a.size()));
  return out;
}

}  // namespace ace::nn
