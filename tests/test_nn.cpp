#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "metrics/classification.hpp"
#include "nn/dataset.hpp"
#include "nn/injection.hpp"
#include "nn/layers.hpp"
#include "nn/squeezenet.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace {

namespace nn = ace::nn;

TEST(Tensor, ShapeAndAccess) {
  EXPECT_THROW(nn::Tensor(0, 2, 2), std::invalid_argument);
  nn::Tensor t(2, 3, 4, 1.5);
  EXPECT_EQ(t.channels(), 2u);
  EXPECT_EQ(t.height(), 3u);
  EXPECT_EQ(t.width(), 4u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_DOUBLE_EQ(t.at(1, 2, 3), 1.5);
  t.at(0, 0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(t.at(0, 0, 0), -2.0);
  EXPECT_THROW((void)t.at(2, 0, 0), std::out_of_range);
  EXPECT_THROW((void)t.at(0, 3, 0), std::out_of_range);
  EXPECT_THROW((void)t.at(0, 0, 4), std::out_of_range);
}

TEST(Conv2d, Validation) {
  EXPECT_THROW(nn::Conv2d(0, 1, 3), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(1, 0, 3), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(1, 1, 2), std::invalid_argument);
  EXPECT_THROW(nn::Conv2d(1, 1, 0), std::invalid_argument);
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  nn::Conv2d conv(1, 1, 3);
  conv.weights().assign(9, 0.0);
  conv.weights()[4] = 1.0;  // Center tap.
  conv.bias()[0] = 0.0;
  nn::Tensor in(1, 4, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x)
      in.at(0, y, x) = static_cast<double>(y * 4 + x);
  const auto out = conv.forward(in);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x)
      EXPECT_DOUBLE_EQ(out.at(0, y, x), in.at(0, y, x));
}

TEST(Conv2d, HandComputedSumKernelWithZeroPadding) {
  nn::Conv2d conv(1, 1, 3);
  conv.weights().assign(9, 1.0);  // Box sum.
  nn::Tensor in(1, 3, 3, 1.0);
  const auto out = conv.forward(in);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 1), 9.0);  // Full 3x3 neighbourhood.
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 4.0);  // Corner: zero padding.
  EXPECT_DOUBLE_EQ(out.at(0, 0, 1), 6.0);  // Edge.
}

TEST(Conv2d, BiasIsAdded) {
  nn::Conv2d conv(1, 2, 1);
  conv.weights() = {2.0, -1.0};
  conv.bias() = {0.5, 1.0};
  nn::Tensor in(1, 1, 1, 3.0);
  const auto out = conv.forward(in);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 6.5);
  EXPECT_DOUBLE_EQ(out.at(1, 0, 0), -2.0);
}

TEST(Conv2d, ChannelMismatchThrows) {
  nn::Conv2d conv(2, 1, 3);
  nn::Tensor in(1, 4, 4);
  EXPECT_THROW((void)conv.forward(in), std::invalid_argument);
}

TEST(Layers, ReluClampsNegatives) {
  nn::Tensor t(1, 1, 3);
  t.at(0, 0, 0) = -1.0;
  t.at(0, 0, 1) = 0.0;
  t.at(0, 0, 2) = 2.5;
  nn::relu_inplace(t);
  EXPECT_DOUBLE_EQ(t.at(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0, 2), 2.5);
}

TEST(Layers, MaxPool2TakesBlockMaxima) {
  nn::Tensor t(1, 2, 4);
  const double vals[2][4] = {{1.0, 2.0, 5.0, 0.0}, {3.0, 0.0, -1.0, 6.0}};
  for (std::size_t y = 0; y < 2; ++y)
    for (std::size_t x = 0; x < 4; ++x) t.at(0, y, x) = vals[y][x];
  const auto out = nn::max_pool2(t);
  EXPECT_EQ(out.height(), 1u);
  EXPECT_EQ(out.width(), 2u);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 1), 6.0);
  nn::Tensor odd(1, 3, 2);
  EXPECT_THROW((void)nn::max_pool2(odd), std::invalid_argument);
}

/// The per-pixel convolution loop Conv2d::forward used before its loop nest
/// was turned (x innermost), kept verbatim as the equivalence oracle: each
/// output starts at the bias and adds its in-range taps in (ic, ky, kx)
/// order. (Non-const: Conv2d exposes its parameters only mutably.)
nn::Tensor reference_conv(nn::Conv2d& conv, const nn::Tensor& input) {
  const std::size_t in_c = conv.in_channels(), out_c = conv.out_channels();
  const std::size_t k = conv.kernel();
  const std::size_t h = input.height(), w = input.width(), pad = k / 2;
  nn::Tensor out(out_c, h, w);
  const double* in = input.data();
  double* o = out.data();
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        double acc = conv.bias()[oc];
        for (std::size_t ic = 0; ic < in_c; ++ic) {
          const double* wbase = &conv.weights()[((oc * in_c + ic) * k) * k];
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y + ky) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(h)) continue;
            const double* irow =
                &in[(ic * h + static_cast<std::size_t>(sy)) * w];
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(x + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (sx < 0 || sx >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += wbase[ky * k + kx] * irow[static_cast<std::size_t>(sx)];
            }
          }
        }
        o[(oc * h + y) * w + x] = acc;
      }
    }
  }
  return out;
}

/// The checked-access 2×2 pooling loop max_pool2 used before it read the
/// flat buffer directly.
nn::Tensor reference_pool(const nn::Tensor& input) {
  const std::size_t h = input.height() / 2, w = input.width() / 2;
  nn::Tensor out(input.channels(), h, w);
  for (std::size_t c = 0; c < input.channels(); ++c)
    for (std::size_t y = 0; y < h; ++y)
      for (std::size_t x = 0; x < w; ++x) {
        const double a = input.at(c, 2 * y, 2 * x);
        const double b = input.at(c, 2 * y, 2 * x + 1);
        const double d = input.at(c, 2 * y + 1, 2 * x);
        const double e = input.at(c, 2 * y + 1, 2 * x + 1);
        out.at(c, y, x) = std::max(std::max(a, b), std::max(d, e));
      }
  return out;
}

/// Bit-for-bit equality of shape and every element (NaN payloads included).
::testing::AssertionResult same_bits(const nn::Tensor& expected,
                                     const nn::Tensor& actual) {
  if (expected.channels() != actual.channels() ||
      expected.height() != actual.height() ||
      expected.width() != actual.width())
    return ::testing::AssertionFailure() << "shape differs";
  for (std::size_t i = 0; i < expected.size(); ++i)
    if (std::bit_cast<std::uint64_t>(expected.flat()[i]) !=
        std::bit_cast<std::uint64_t>(actual.flat()[i]))
      return ::testing::AssertionFailure()
             << std::hexfloat << "element " << i << ": expected "
             << expected.flat()[i] << ", got " << actual.flat()[i];
  return ::testing::AssertionSuccess();
}

TEST(Conv2d, ForwardIsBitIdenticalToPerPixelLoop) {
  ace::util::Rng rng(314);
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {2, 2}, {5, 7}, {7, 5}, {16, 16}};
  const std::pair<std::size_t, std::size_t> channels[] = {
      {1, 1}, {1, 4}, {3, 2}, {8, 5}};
  for (std::size_t k : {1u, 3u, 5u})
    for (const auto& [in_c, out_c] : channels)
      for (const auto& [h, w] : sizes) {
        nn::Conv2d conv(in_c, out_c, k);
        conv.init_weights(rng);  // He-normal: negative weights and biases.
        nn::Tensor input(in_c, h, w);
        for (auto& v : input.flat()) v = rng.normal(0.0, 2.0);
        EXPECT_TRUE(same_bits(reference_conv(conv, input), conv.forward(input)))
            << "k=" << k << " in=" << in_c << " out=" << out_c << " " << h
            << "x" << w;
      }
}

TEST(Layers, MaxPool2IsBitIdenticalToCheckedLoop) {
  ace::util::Rng rng(2718);
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  for (std::size_t c : {1u, 3u, 8u})
    for (const auto& [h, w] :
         {std::pair<std::size_t, std::size_t>{2, 2}, {4, 6}, {6, 4}, {16, 16}}) {
      nn::Tensor input(c, h, w);
      for (std::size_t i = 0; i < input.size(); ++i)
        input.flat()[i] = i % 7 == 3 ? specials[(i / 7) % 5]
                                     : rng.normal(0.0, 1.0);
      EXPECT_TRUE(same_bits(reference_pool(input), nn::max_pool2(input)))
          << c << "x" << h << "x" << w;
    }
}

TEST(Layers, GlobalAvgPool) {
  nn::Tensor t(2, 2, 2);
  for (std::size_t i = 0; i < 4; ++i) t.at(0, i / 2, i % 2) = 1.0;
  t.at(1, 0, 0) = 4.0;  // Others zero.
  const auto pooled = nn::global_avg_pool(t);
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_DOUBLE_EQ(pooled[0], 1.0);
  EXPECT_DOUBLE_EQ(pooled[1], 1.0);
}

TEST(Layers, SoftmaxIsNormalizedAndOrderPreserving) {
  const auto p = nn::softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
  // Large logits stay finite.
  const auto q = nn::softmax({1000.0, 1001.0});
  EXPECT_TRUE(std::isfinite(q[0]));
  EXPECT_NEAR(q[0] + q[1], 1.0, 1e-12);
  EXPECT_THROW((void)nn::softmax({}), std::invalid_argument);
}

TEST(Layers, ConcatChannels) {
  nn::Tensor a(1, 2, 2, 1.0);
  nn::Tensor b(2, 2, 2, 2.0);
  const auto c = nn::concat_channels(a, b);
  EXPECT_EQ(c.channels(), 3u);
  EXPECT_DOUBLE_EQ(c.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1, 1), 2.0);
  EXPECT_DOUBLE_EQ(c.at(2, 0, 1), 2.0);
  nn::Tensor bad(1, 3, 2);
  EXPECT_THROW((void)nn::concat_channels(a, bad), std::invalid_argument);
}

TEST(FireModule, OutputChannelsAreTwiceExpand) {
  ace::util::Rng rng(30);
  nn::FireModule fire(8, 2, 4);
  fire.init_weights(rng);
  EXPECT_EQ(fire.out_channels(), 8u);
  nn::Tensor in(8, 4, 4, 0.1);
  const auto out = fire.forward(in);
  EXPECT_EQ(out.channels(), 8u);
  EXPECT_EQ(out.height(), 4u);
  // ReLU output is non-negative.
  for (double v : out.flat()) EXPECT_GE(v, 0.0);
}

TEST(SqueezeNetLike, StructureAndDeterminism) {
  ace::util::Rng rng(31);
  nn::SqueezeNetLike net(10, rng);
  EXPECT_EQ(net.classes(), 10u);
  EXPECT_EQ(net.site_sizes().size(), nn::SqueezeNetLike::kSites);
  // Site 0 is conv1's 8x16x16 output.
  EXPECT_EQ(net.site_sizes()[0], 8u * 16u * 16u);
  // Last site is the classifier conv output (10 channels at 2x2).
  EXPECT_EQ(net.site_sizes()[9], 10u * 2u * 2u);
  EXPECT_THROW(nn::SqueezeNetLike(1, rng), std::invalid_argument);

  nn::Tensor img(1, 16, 16, 0.3);
  const auto l1 = net.forward(img);
  const auto l2 = net.forward(img);
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(l1.size(), 10u);
}

TEST(SqueezeNetLike, RejectsWrongInputShape) {
  ace::util::Rng rng(32);
  nn::SqueezeNetLike net(4, rng);
  nn::Tensor bad(1, 8, 8);
  EXPECT_THROW((void)net.forward(bad), std::invalid_argument);
  nn::Tensor bad2(3, 16, 16);
  EXPECT_THROW((void)net.forward(bad2), std::invalid_argument);
}

TEST(Injection, PlanFromPowersAndValidation) {
  const auto plan = nn::InjectionPlan::from_powers({4.0, 0.0, 0.25});
  EXPECT_DOUBLE_EQ(plan.stddev[0], 2.0);
  EXPECT_DOUBLE_EQ(plan.stddev[1], 0.0);
  EXPECT_DOUBLE_EQ(plan.stddev[2], 0.5);
  EXPECT_THROW((void)nn::InjectionPlan::from_powers({-1.0}),
               std::invalid_argument);
}

TEST(Injection, PowerFromLevelHalvesPerLevel) {
  EXPECT_DOUBLE_EQ(nn::power_from_level(0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(nn::power_from_level(1, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(nn::power_from_level(10, 1.0), std::ldexp(1.0, -10));
  EXPECT_THROW((void)nn::power_from_level(-1), std::invalid_argument);
}

TEST(Injection, FrozenNoiseMatchesSiteSizes) {
  ace::util::Rng rng(33);
  const auto noise = nn::make_frozen_noise(rng, {4, 9});
  ASSERT_EQ(noise.per_site.size(), 2u);
  EXPECT_EQ(noise.per_site[0].size(), 4u);
  EXPECT_EQ(noise.per_site[1].size(), 9u);
}

TEST(SqueezeNetLike, ZeroNoiseInjectionEqualsCleanForward) {
  ace::util::Rng rng(34);
  nn::SqueezeNetLike net(6, rng);
  auto noise_rng = rng.fork();
  const auto noise = nn::make_frozen_noise(noise_rng, net.site_sizes());
  const auto plan =
      nn::InjectionPlan::from_powers(std::vector<double>(10, 0.0));
  nn::Tensor img(1, 16, 16, 0.4);
  const auto clean = net.forward(img);
  const auto injected = net.forward_injected(img, plan, noise);
  for (std::size_t i = 0; i < clean.size(); ++i)
    EXPECT_DOUBLE_EQ(clean[i], injected[i]);
}

TEST(SqueezeNetLike, InjectionValidation) {
  ace::util::Rng rng(35);
  nn::SqueezeNetLike net(4, rng);
  auto noise_rng = rng.fork();
  const auto noise = nn::make_frozen_noise(noise_rng, net.site_sizes());
  nn::Tensor img(1, 16, 16, 0.4);
  nn::InjectionPlan bad_plan;
  bad_plan.stddev.assign(5, 0.0);
  EXPECT_THROW((void)net.forward_injected(img, bad_plan, noise),
               std::invalid_argument);
  nn::FrozenNoise bad_noise;
  bad_noise.per_site.assign(10, {});
  const auto plan =
      nn::InjectionPlan::from_powers(std::vector<double>(10, 1.0));
  EXPECT_THROW((void)net.forward_injected(img, plan, bad_noise),
               std::invalid_argument);
}

TEST(SqueezeNetLike, LargeNoiseChangesPredictions) {
  ace::util::Rng rng(36);
  nn::SqueezeNetLike net(10, rng);
  auto data_rng = rng.fork();
  auto noise_rng = rng.fork();
  nn::SyntheticDataset data(40, 10, data_rng);
  std::vector<nn::FrozenNoise> noise;
  for (std::size_t i = 0; i < data.size(); ++i)
    noise.push_back(nn::make_frozen_noise(noise_rng, net.site_sizes()));

  auto agreement_at = [&](double power) {
    const auto plan =
        nn::InjectionPlan::from_powers(std::vector<double>(10, power));
    std::vector<int> clean_labels, noisy_labels;
    for (std::size_t i = 0; i < data.size(); ++i) {
      clean_labels.push_back(static_cast<int>(
          ace::metrics::argmax(net.forward(data.image(i)))));
      noisy_labels.push_back(static_cast<int>(ace::metrics::argmax(
          net.forward_injected(data.image(i), plan, noise[i]))));
    }
    return ace::metrics::classification_agreement(noisy_labels, clean_labels);
  };

  EXPECT_DOUBLE_EQ(agreement_at(0.0), 1.0);
  const double tiny = agreement_at(1e-8);
  const double huge = agreement_at(100.0);
  EXPECT_GT(tiny, 0.9);
  EXPECT_LT(huge, tiny);
}

TEST(SyntheticDataset, DeterministicAndClassStructured) {
  ace::util::Rng a(37), b(37);
  nn::SyntheticDataset d1(20, 5, a);
  nn::SyntheticDataset d2(20, 5, b);
  EXPECT_EQ(d1.size(), 20u);
  EXPECT_EQ(d1.classes(), 5u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(d1.source_class(i), i % 5);
    EXPECT_EQ(d1.image(i).flat(), d2.image(i).flat());
  }
  EXPECT_THROW(nn::SyntheticDataset(0, 5, a), std::invalid_argument);
  EXPECT_THROW(nn::SyntheticDataset(5, 0, a), std::invalid_argument);
}

}  // namespace
