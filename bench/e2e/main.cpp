// ace_e2e: end-to-end benchmark program. Runs one workload per invocation
// and prints its metrics, one per line, then one JSON object as the last
// line (see README.md for the workloads, the metrics and run.py).
//
//   ace_e2e --workload=NAME [--seed=S] [--seconds=T] [--trace=FILE] [--smoke]
//   ace_e2e --self-test
//
// Untraced, the metrics are the end-to-end ones; with --trace the run is
// traced, prints the per-layer metrics, and writes a Chrome trace to FILE.
// Exit status: 0 when every check held, 1 when a check failed (the report
// is still printed), 2 on bad usage or when the workload could not run.
#include <sched.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "e2e.hpp"
#include "trace.hpp"
#include "util/simd.hpp"

namespace {

namespace e2e = ace::e2e;

struct Workload {
  const char* name;
  e2e::Report (*run)(const e2e::Options&);
};

constexpr Workload kWorkloads[] = {
    {"cnn_budget", &e2e::run_cnn_budget},
    {"hevc_wordlength", &e2e::run_hevc_wordlength},
    {"kriging_bound", &e2e::run_kriging_bound},
    {"serve_sessions", &e2e::run_serve_sessions},
};

/// CPUs this process may run on, as `nproc` counts them.
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<e2e::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_report(const e2e::Options& options, const e2e::Report& report) {
  std::cout << "ace_e2e " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << (options.traced() ? " traced" : " untraced")
            << (options.smoke ? " smoke" : "") << '\n';
  for (const e2e::Metric& m : report.metrics)
    std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  for (const e2e::Metric& m : report.info)
    std::cout << "  (info) " << m.name << " = " << m.value << ' ' << m.unit
              << '\n';
  for (const auto& [name, value] : report.counts)
    std::cout << "  (count) " << name << " = " << value << '\n';
  std::cout << "  attempted " << report.attempted << ", failed "
            << report.failed << ", broken checks " << report.check_failures
            << '\n';
  for (const std::string& f : report.failures)
    std::cout << "  FAILED: " << f << '\n';

  std::string counts = "{";
  for (std::size_t i = 0; i < report.counts.size(); ++i)
    counts += (i == 0 ? "" : ", ") + json_string(report.counts[i].first) +
              ": " + std::to_string(report.counts[i].second);
  counts += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    failures += (i == 0 ? "" : ", ") + json_string(report.failures[i]);
  failures += "]";
  const std::string context =
      std::string("{\"git_sha\": ") + json_string(ACE_E2E_GIT_SHA) +
      ", \"git_dirty\": " + json_string(ACE_E2E_GIT_DIRTY) +
      ", \"build_type\": " + json_string(ACE_E2E_BUILD_TYPE) +
      ", \"compiler\": " + json_string(ACE_E2E_COMPILER) +
      ", \"nproc\": " + std::to_string(nproc()) +
      ", \"simd\": " + json_string(ACE_E2E_SIMD) +
      ", \"simd_backend\": " + json_string(ace::util::simd::backend()) +
      ", \"simd_enabled\": " +
      (ace::util::simd::enabled() ? "true" : "false") + "}";

  std::cout << "{\"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"traced\": " << (options.traced() ? "true" : "false")
            << ", \"smoke\": " << (options.smoke ? "true" : "false")
            << ", \"context\": " << context
            << ", \"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"failures\": " << failures << ", \"counts\": " << counts
            << ", \"info\": " << json_metrics(report.info)
            << ", \"metrics\": " << json_metrics(report.metrics) << "}"
            << std::endl;
}

/// Checks of the span arithmetic on hand-built spans: union-based self
/// time with overlapping children, nesting checks, and the recorder's
/// parent links across threads.
int self_test() {
  int broken = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test failed: " << what << '\n';
      ++broken;
    }
  };
  expect(e2e::self_ns(0, 100, {}) == 100, "no children");
  expect(e2e::self_ns(0, 100, {{10, 30}, {20, 40}, {50, 60}, {90, 120}}) == 50,
         "overlapping children clipped to the parent");
  expect(e2e::self_ns(0, 100, {{0, 100}, {10, 20}}) == 0, "full cover");
  expect(e2e::self_ns(0, 100, {{-5, 5}, {5, 10}, {10, 15}}) == 85,
         "touching children");

  // A backend call whose three simulations overlap on two threads: their
  // durations sum to 1200 ns inside an 800 ns call, the union is 750 ns.
  const auto span = [](const char* name, std::uint64_t id,
                       std::uint64_t parent, std::int64_t start,
                       std::int64_t end) {
    e2e::Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
  };
  std::vector<e2e::Span> spans = {
      span("policy", 1, 0, 0, 1000), span("backend", 2, 1, 100, 900),
      span("sim", 3, 2, 100, 600), span("sim", 4, 2, 150, 650),
      span("sim", 5, 2, 700, 900)};
  {
    const e2e::SpanTree tree(spans);
    expect(std::llround(tree.self_seconds("backend") * 1e9) == 50,
           "backend self time is its wall minus the union of its sims");
    expect(std::llround(tree.self_seconds("policy") * 1e9) == 200,
           "policy self time");
    expect(tree.nesting_violations().empty(), "well-nested spans");
  }
  spans.push_back(span("sim", 6, 2, 850, 950));
  spans.push_back(span("sim", 7, 99, 0, 1));
  expect(e2e::SpanTree(spans).nesting_violations().size() == 2,
         "a child outside its parent and an orphan are both reported");

  // The recorder: nested scopes on this thread, an explicit parent on
  // another.
  e2e::Tracer tracer;
  std::uint64_t outer_id = 0;
  {
    const e2e::ScopedSpan outer(tracer, "outer", 1);
    outer_id = outer.id();
    { const e2e::ScopedSpan inner(tracer, "inner", 1); }
    std::thread worker(
        [&] { const e2e::ScopedSpan sim(tracer, "sim", 1, 0, outer_id); });
    worker.join();
  }
  const std::vector<e2e::Span> recorded = tracer.collect();
  const e2e::SpanTree tree(recorded);
  bool linked = recorded.size() == 3;
  for (const e2e::Span& s : recorded)
    if (s.id != outer_id) linked = linked && s.parent == outer_id;
  expect(linked, "recorded spans link to their parent");
  expect(tree.nesting_violations().empty(), "recorded spans nest");

  std::cout << (broken == 0 ? "self-test ok" : "self-test FAILED") << '\n';
  return broken == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: ace_e2e --workload=NAME [--seed=S] [--seconds=T] "
               "[--trace=FILE] [--smoke]\n       ace_e2e --self-test\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string flag = arg.substr(0, eq);
      const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
      if (arg == "--self-test") return self_test();
      if (arg == "--smoke") {
        options.smoke = true;
      } else if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace" && !value.empty()) {
        options.trace_path = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!(options.seconds > 0.0)) return usage();

  for (const Workload& w : kWorkloads) {
    if (options.workload != w.name) continue;
    try {
      const e2e::Report report = w.run(options);
      print_report(options, report);
      return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "ace_e2e: " << options.workload << ": " << e.what() << '\n';
      return 2;
    }
  }
  return usage();
}
