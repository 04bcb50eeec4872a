#include "core/benchmarks.hpp"

#include <array>
#include <cmath>
#include <complex>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>

#include "approx/adders.hpp"
#include "approx/multipliers.hpp"

#include "metrics/classification.hpp"
#include "metrics/noise_power.hpp"
#include "nn/dataset.hpp"
#include "nn/squeezenet.hpp"
#include "signal/dct.hpp"
#include "signal/fft.hpp"
#include "signal/fir.hpp"
#include "signal/generator.hpp"
#include "signal/iir.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/hevc_mc.hpp"

namespace ace::core {

double ApplicationBenchmark::lambda_min() const {
  return dse::optimizer_lambda_min(optimizer, min_plus_one, sensitivity);
}

dse::OptimizerCursor ApplicationBenchmark::run_optimizer(
    const dse::EvaluateFn& evaluate) const {
  const dse::BatchEvaluateFn batch = dse::serialize_evaluator(evaluate);
  dse::OptimizerCursor cursor =
      dse::make_optimizer_cursor(optimizer, min_plus_one, sensitivity);
  while (dse::optimizer_step(batch, min_plus_one, sensitivity, cursor)) {
  }
  return cursor;
}

namespace {

dse::MinPlusOneOptions word_length_options(std::size_t nv, double lambda_min,
                                           int w_min, int w_max) {
  dse::MinPlusOneOptions o;
  o.lambda_min = lambda_min;
  o.nv = nv;
  o.w_min = w_min;
  o.w_max = w_max;
  return o;
}

/// Runs part(i) for each of a simulation's n independent parts on the pool
/// whose task is running the simulation (inline in index order when there
/// is none), then rethrows the lowest-index failure: the one a serial loop
/// would have hit first. Each part writes its own index-addressed slot and
/// the caller reduces the slots in index order, so λ is the same bits on
/// any pool.
void for_each_part(std::size_t n,
                   const std::function<void(std::size_t)>& part) {
  const std::vector<util::TaskError> errors =
      util::parallel_for_indexed_collect(util::ThreadPool::current(), n, part);
  if (!errors.empty()) std::rethrow_exception(errors.front().error);
}

/// λ = −P in dB.
double accuracy_db(const std::vector<double>& approx,
                   const std::vector<double>& reference) {
  return -metrics::to_db(metrics::noise_power(approx, reference));
}

}  // namespace

ApplicationBenchmark make_fir_benchmark(const SignalBenchOptions& opt) {
  struct State {
    std::vector<double> input;
    std::vector<double> reference;
    std::unique_ptr<signal::QuantizedFirFilter> quantized;
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  state->input = signal::noisy_multitone(rng, opt.samples);
  const signal::FirFilter fir(signal::design_lowpass_fir(64, 0.18));
  state->reference = fir.filter(state->input);
  state->quantized = std::make_unique<signal::QuantizedFirFilter>(fir);

  ApplicationBenchmark bench;
  bench.name = "FIR";
  bench.nv = signal::QuantizedFirFilter::kVariables;
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kMinPlusOne;
  bench.min_plus_one =
      word_length_options(bench.nv, opt.lambda_min_db, opt.w_min, opt.w_max);
  bench.simulate = [state](const dse::Config& w) {
    return accuracy_db(state->quantized->filter(state->input, w),
                       state->reference);
  };
  return bench;
}

ApplicationBenchmark make_iir_benchmark(const SignalBenchOptions& opt) {
  struct State {
    std::vector<double> input;
    std::vector<double> reference;
    std::unique_ptr<signal::QuantizedIirCascade> quantized;
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  state->input = signal::noisy_multitone(rng, opt.samples);
  const signal::IirCascade iir(signal::design_butterworth_lowpass(8, 0.12));
  state->reference = iir.filter(state->input);
  state->quantized =
      std::make_unique<signal::QuantizedIirCascade>(iir, state->input);

  ApplicationBenchmark bench;
  bench.name = "IIR";
  bench.nv = state->quantized->variable_count();
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kMinPlusOne;
  bench.min_plus_one =
      word_length_options(bench.nv, opt.lambda_min_db, opt.w_min, opt.w_max);
  bench.simulate = [state](const dse::Config& w) {
    return accuracy_db(state->quantized->filter(state->input, w),
                       state->reference);
  };
  return bench;
}

ApplicationBenchmark make_fft_benchmark(const SignalBenchOptions& opt) {
  constexpr std::size_t kFftSize = 64;
  if (opt.samples < kFftSize)
    throw std::invalid_argument("make_fft_benchmark: samples < 64");
  struct State {
    std::vector<std::vector<std::complex<double>>> frames;
    std::vector<double> ref_re, ref_im;
    std::unique_ptr<signal::QuantizedFft> quantized;
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  const auto samples = signal::noisy_multitone(rng, opt.samples);
  for (std::size_t base = 0; base + kFftSize <= samples.size();
       base += kFftSize) {
    std::vector<std::complex<double>> frame(kFftSize);
    for (std::size_t i = 0; i < kFftSize; ++i) frame[i] = samples[base + i];
    state->frames.push_back(std::move(frame));
  }
  for (const auto& frame : state->frames) {
    auto spectrum = frame;
    signal::fft(spectrum);
    for (const auto& bin : spectrum) {
      state->ref_re.push_back(bin.real());
      state->ref_im.push_back(bin.imag());
    }
  }
  state->quantized = std::make_unique<signal::QuantizedFft>(kFftSize,
                                                            state->frames);

  ApplicationBenchmark bench;
  bench.name = "FFT";
  bench.nv = state->quantized->variable_count();
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kMinPlusOne;
  bench.min_plus_one =
      word_length_options(bench.nv, opt.lambda_min_db, opt.w_min, opt.w_max);
  bench.simulate = [state](const dse::Config& w) {
    std::vector<double> re, im;
    re.reserve(state->ref_re.size());
    im.reserve(state->ref_im.size());
    for (const auto& frame : state->frames) {
      const auto spectrum = state->quantized->transform(frame, w);
      for (const auto& bin : spectrum) {
        re.push_back(bin.real());
        im.push_back(bin.imag());
      }
    }
    return -metrics::to_db(
        metrics::noise_power_complex(re, im, state->ref_re, state->ref_im));
  };
  return bench;
}

ApplicationBenchmark make_hevc_benchmark(const HevcBenchOptions& opt) {
  struct State {
    std::vector<video::McJob> jobs;
    std::vector<double> reference;
    std::unique_ptr<video::QuantizedMotionCompensation> quantized;
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  state->jobs = video::synthetic_jobs(rng, opt.jobs);
  for (const auto& job : state->jobs) {
    const auto block = video::interpolate_reference(job);
    for (std::size_t y = 0; y < video::kBlockSize; ++y)
      for (std::size_t x = 0; x < video::kBlockSize; ++x)
        state->reference.push_back(block.at(x, y));
  }
  state->quantized =
      std::make_unique<video::QuantizedMotionCompensation>(state->jobs);

  ApplicationBenchmark bench;
  bench.name = "HEVC";
  bench.nv = video::QuantizedMotionCompensation::kVariables;
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kMinPlusOne;
  bench.min_plus_one =
      word_length_options(bench.nv, opt.lambda_min_db, opt.w_min, opt.w_max);
  bench.simulate = [state](const dse::Config& w) {
    constexpr std::size_t kPixels = video::kBlockSize * video::kBlockSize;
    const auto q = state->quantized->site_quantizers(w);
    std::vector<double> approx(state->reference.size());
    for_each_part(state->jobs.size(), [&](std::size_t j) {
      const video::Frame block =
          state->quantized->interpolate(state->jobs[j], q);
      double* slot = &approx[j * kPixels];
      for (std::size_t y = 0; y < video::kBlockSize; ++y)
        for (std::size_t x = 0; x < video::kBlockSize; ++x)
          slot[y * video::kBlockSize + x] = block.at(x, y);
    });
    return accuracy_db(approx, state->reference);
  };
  return bench;
}

ApplicationBenchmark make_squeezenet_benchmark(const CnnBenchOptions& opt) {
  struct State {
    std::unique_ptr<nn::SqueezeNetLike> net;
    std::unique_ptr<nn::SyntheticDataset> data;
    std::vector<nn::FrozenNoise> noise;  ///< Per image.
    std::vector<int> reference_labels;
    double base_power = 1.0;
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  auto net_rng = rng.fork();
  auto data_rng = rng.fork();
  auto noise_rng = rng.fork();
  state->net = std::make_unique<nn::SqueezeNetLike>(opt.classes, net_rng);
  state->data =
      std::make_unique<nn::SyntheticDataset>(opt.images, opt.classes, data_rng);
  state->base_power = opt.base_power;
  state->noise.reserve(opt.images);
  for (std::size_t i = 0; i < opt.images; ++i)
    state->noise.push_back(
        nn::make_frozen_noise(noise_rng, state->net->site_sizes()));
  for (std::size_t i = 0; i < opt.images; ++i) {
    const auto logits = state->net->forward(state->data->image(i));
    state->reference_labels.push_back(
        static_cast<int>(metrics::argmax(logits)));
  }

  ApplicationBenchmark bench;
  bench.name = "SqueezeNet";
  bench.nv = nn::SqueezeNetLike::kSites;
  bench.metric = dse::MetricKind::kQualityRate;
  bench.optimizer = OptimizerKind::kSteepestDescent;
  bench.sensitivity.lambda_min = opt.pcl_min;
  bench.sensitivity.nv = bench.nv;
  bench.sensitivity.level_min = 0;
  bench.sensitivity.level_max = opt.level_max;
  bench.simulate = [state](const dse::Config& levels) {
    std::vector<double> powers;
    powers.reserve(levels.size());
    for (int level : levels)
      powers.push_back(nn::power_from_level(level, state->base_power));
    const auto plan = nn::InjectionPlan::from_powers(powers);

    std::vector<int> predicted(state->data->size());
    for_each_part(predicted.size(), [&](std::size_t i) {
      const auto logits = state->net->forward_injected(
          state->data->image(i), plan, state->noise[i]);
      predicted[i] = static_cast<int>(metrics::argmax(logits));
    });
    return metrics::classification_agreement(predicted,
                                             state->reference_labels);
  };
  return bench;
}

ApplicationBenchmark make_iir_sensitivity_benchmark(
    const IirSensitivityOptions& opt) {
  struct State {
    std::vector<signal::BiquadCoefficients> sections;
    std::vector<double> input;
    std::vector<double> reference;
    std::vector<std::vector<double>> noise;  ///< [source][sample], unit var.
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  state->sections = signal::design_butterworth_lowpass(8, 0.12);
  state->input = signal::noisy_multitone(rng, opt.samples);
  const signal::IirCascade cascade(state->sections);
  state->reference = cascade.filter(state->input);

  // Frozen unit-variance noise per source: one at the cascade input plus
  // one at each section output (Nv = sections + 1).
  auto noise_rng = rng.fork();
  const std::size_t nv = state->sections.size() + 1;
  for (std::size_t s = 0; s < nv; ++s)
    state->noise.push_back(noise_rng.normal_vector(opt.samples));

  ApplicationBenchmark bench;
  bench.name = "IIR-sens";
  bench.nv = nv;
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kSteepestDescent;
  bench.sensitivity.lambda_min = opt.lambda_min_db;
  bench.sensitivity.nv = nv;
  bench.sensitivity.level_min = 0;
  bench.sensitivity.level_max = opt.level_max;
  bench.simulate = [state](const dse::Config& levels) {
    std::vector<double> stddev(levels.size());
    for (std::size_t s = 0; s < levels.size(); ++s)
      stddev[s] = std::sqrt(std::ldexp(1.0, -levels[s]));

    std::vector<signal::Biquad> stages;
    for (const auto& c : state->sections) stages.emplace_back(c);

    std::vector<double> out(state->input.size());
    for (std::size_t i = 0; i < state->input.size(); ++i) {
      double x = state->input[i] + stddev[0] * state->noise[0][i];
      for (std::size_t s = 0; s < stages.size(); ++s)
        x = stages[s].process(x) + stddev[s + 1] * state->noise[s + 1][i];
      out[i] = x;
    }
    return accuracy_db(out, state->reference);
  };
  return bench;
}

ApplicationBenchmark make_approx_fir_benchmark(
    const ApproxFirBenchOptions& opt) {
  if (opt.taps < 2 || opt.taps % 2 != 0)
    throw std::invalid_argument("make_approx_fir_benchmark: taps even >= 2");
  if (opt.v_min < 2 || opt.v_min >= opt.v_max)
    throw std::invalid_argument("make_approx_fir_benchmark: bad v range");

  struct State {
    std::vector<int> input;        ///< 8-bit signed samples.
    std::vector<int> coeffs;       ///< 8-bit signed coefficients.
    std::vector<double> reference; ///< Exact integer FIR output.
    int v_max = 14;
  };
  auto state = std::make_shared<State>();
  state->v_max = opt.v_max;

  util::Rng rng(opt.seed);
  const auto analog = signal::noisy_multitone(rng, opt.samples);
  state->input.reserve(opt.samples);
  for (double x : analog)
    state->input.push_back(static_cast<int>(std::lround(x * 127.0)));

  const auto h = signal::design_lowpass_fir(opt.taps, 0.2);
  state->coeffs.reserve(opt.taps);
  for (double c : h)
    state->coeffs.push_back(static_cast<int>(std::lround(c * 127.0)));

  // Exact integer reference.
  state->reference.resize(opt.samples, 0.0);
  for (std::size_t i = 0; i < opt.samples; ++i) {
    std::int64_t acc = 0;
    const std::size_t reach = std::min(i + 1, opt.taps);
    for (std::size_t k = 0; k < reach; ++k)
      acc += static_cast<std::int64_t>(state->coeffs[k]) *
             state->input[i - k];
    state->reference[i] = static_cast<double>(acc);
  }

  ApplicationBenchmark bench;
  bench.name = "ApproxFIR";
  bench.nv = 4;
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kMinPlusOne;
  bench.min_plus_one =
      word_length_options(bench.nv, opt.lambda_min_db, opt.v_min, opt.v_max);
  bench.simulate = [state](const dse::Config& v) {
    // Variables: (mult half 0, add half 0, mult half 1, add half 1);
    // degree = v_max − v + 1, so even v = v_max keeps one approximate
    // bit — the exact corner would put a ±infinity cliff (noise power 0)
    // into the accuracy surface, which no interpolator can serve.
    constexpr int kAccWidth = 26;
    const approx::TruncatedMultiplier mul0(9, state->v_max - v[0] + 1);
    const approx::LowerOrAdder add0(kAccWidth, state->v_max - v[1] + 1);
    const approx::TruncatedMultiplier mul1(9, state->v_max - v[2] + 1);
    const approx::LowerOrAdder add1(kAccWidth, state->v_max - v[3] + 1);

    const std::size_t taps = state->coeffs.size();
    const std::size_t half = taps / 2;
    std::vector<double> out(state->input.size());
    for (std::size_t i = 0; i < state->input.size(); ++i) {
      std::int64_t acc = 0;
      const std::size_t reach = std::min(i + 1, taps);
      for (std::size_t k = 0; k < reach; ++k) {
        const bool first_half = k < half;
        const std::int64_t product =
            first_half ? mul0.multiply(state->coeffs[k], state->input[i - k])
                       : mul1.multiply(state->coeffs[k], state->input[i - k]);
        acc = first_half ? add0.add(acc, product) : add1.add(acc, product);
      }
      out[i] = static_cast<double>(acc);
    }
    // Normalize both signals by the full-scale product so the dB figures
    // are comparable with the fixed-point benchmarks.
    std::vector<double> approx_norm(out.size()), ref_norm(out.size());
    const double scale = 127.0 * 127.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      approx_norm[i] = out[i] / scale;
      ref_norm[i] = state->reference[i] / scale;
    }
    return accuracy_db(approx_norm, ref_norm);
  };
  return bench;
}

ApplicationBenchmark make_dct_benchmark(const DctBenchOptions& opt) {
  struct State {
    std::vector<std::array<double, signal::kDctBlock>> blocks;
    std::vector<double> reference;
    std::unique_ptr<signal::QuantizedDct2d> quantized;
  };
  auto state = std::make_shared<State>();
  util::Rng rng(opt.seed);
  state->blocks.reserve(opt.blocks);
  for (std::size_t b = 0; b < opt.blocks; ++b) {
    const auto patch = video::synthetic_patch(rng, signal::kDctSize,
                                              signal::kDctSize);
    std::array<double, signal::kDctBlock> block{};
    for (std::size_t y = 0; y < signal::kDctSize; ++y)
      for (std::size_t x = 0; x < signal::kDctSize; ++x)
        block[y * signal::kDctSize + x] = patch.at(x, y) - 0.5;  // Centre.
    state->blocks.push_back(block);
  }
  for (const auto& block : state->blocks) {
    const auto coeffs = signal::dct2d_reference(block);
    state->reference.insert(state->reference.end(), coeffs.begin(),
                            coeffs.end());
  }
  state->quantized = std::make_unique<signal::QuantizedDct2d>(state->blocks);

  ApplicationBenchmark bench;
  bench.name = "DCT";
  bench.nv = signal::QuantizedDct2d::kVariables;
  bench.metric = dse::MetricKind::kAccuracyDb;
  bench.optimizer = OptimizerKind::kMinPlusOne;
  bench.min_plus_one =
      word_length_options(bench.nv, opt.lambda_min_db, opt.w_min, opt.w_max);
  bench.simulate = [state](const dse::Config& w) {
    std::vector<double> approx;
    approx.reserve(state->reference.size());
    for (const auto& block : state->blocks) {
      const auto coeffs = state->quantized->transform(block, w);
      approx.insert(approx.end(), coeffs.begin(), coeffs.end());
    }
    return accuracy_db(approx, state->reference);
  };
  return bench;
}

}  // namespace ace::core
