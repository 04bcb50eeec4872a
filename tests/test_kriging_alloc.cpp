// Heap allocations of the kriging workspace, counted by replacing the
// global operator new in this binary (hence its own executable). Once a
// kriging::KrigingSystem has been loaded and solved at its high-water
// support size, reloading and solving it at any size up to that mark must
// allocate nothing — for well-conditioned supports, for supports that
// climb the ridge ladder, and when the support is written straight from a
// dse::SimulationStore neighbourhood, the way dse::KrigingPolicy does it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "dse/config.hpp"
#include "dse/sim_store.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace d = ace::dse;
namespace k = ace::kriging;

constexpr std::size_t kDim = 6;
constexpr std::size_t kHighWater = 16;

struct Support {
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  std::vector<double> query;
};

Support random_support(std::size_t n, ace::util::Rng& rng) {
  Support s;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p(kDim);
    for (auto& x : p) x = rng.uniform_int(0, 6);
    s.points.push_back(std::move(p));
    s.values.push_back(rng.uniform(-10.0, 10.0));
  }
  s.query.resize(kDim);
  for (auto& x : s.query) x = rng.uniform(0.0, 6.0);
  return s;
}

/// Allocations made while `body` runs.
template <class F>
std::size_t allocations_in(F&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Warm the workspace at the high-water size, then reload and solve
/// `supports` (built beforehand) and count what that allocates.
std::size_t reload_allocations(k::KrigingSystem& ws,
                               const std::vector<Support>& supports,
                               const Support& warmup, std::size_t& solved) {
  k::KrigingResult result;
  ws.load(warmup.points, warmup.values);
  (void)ws.query(warmup.query, result);
  return allocations_in([&] {
    for (const Support& s : supports) {
      ws.load(s.points, s.values);
      solved += ws.query(s.query, result) ? 1 : 0;
    }
  });
}

TEST(KrigingAlloc, CounterSeesHeapAllocations) {
  const std::size_t n = allocations_in([] {
    auto* v = new std::vector<double>(8);
    delete v;
  });
  EXPECT_EQ(n, 2u);
}

TEST(KrigingAlloc, WarmReloadAndSolveAllocateNothing) {
  ace::util::Rng rng(3);
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Support warmup = random_support(kHighWater, rng);
  std::vector<Support> supports;
  for (std::size_t n = kHighWater; n >= 1; --n)
    supports.push_back(random_support(n, rng));
  // Coincident support: the dedupe runs in place too.
  Support dup = random_support(5, rng);
  dup.points.push_back(dup.points.front());
  dup.values.push_back(dup.values.front());
  supports.push_back(dup);

  for (const k::SystemSpec spec :
       {k::SystemSpec{k::SystemKind::kOrdinary}}) {
    k::KrigingSystem ws(spec, model);
    std::size_t solved = 0;
    EXPECT_EQ(reload_allocations(ws, supports, warmup, solved), 0u)
        << "kind " << static_cast<int>(spec.kind);
    EXPECT_EQ(solved, supports.size());
  }
}

TEST(KrigingAlloc, RidgeLadderReloadsAllocateNothing) {
  // An all-zero variogram makes every Γ rank deficient: each solve climbs
  // the ladder through singular rungs to a ridge factor.
  ace::util::Rng rng(5);
  const k::LinearVariogram flat(0.0, 0.0);
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Support warmup = random_support(kHighWater, rng);
  std::vector<Support> supports;
  for (std::size_t n = kHighWater; n >= 2; n -= 2)
    supports.push_back(random_support(n, rng));

  // Warmed on a well-conditioned support: the ridge factor's buffers are
  // sized by the load, not by the first climb.
  k::KrigingSystem ws({k::SystemKind::kOrdinary}, model);
  k::KrigingResult result;
  ws.load(warmup.points, warmup.values);
  ASSERT_TRUE(ws.query(warmup.query, result));
  ASSERT_FALSE(result.regularized);
  ws.set_model({k::SystemKind::kOrdinary}, flat);  // The one model clone.
  std::size_t regularized = 0;
  const std::size_t n = allocations_in([&] {
    for (const Support& s : supports) {
      ws.load(s.points, s.values);
      if (ws.query(s.query, result) && result.regularized) ++regularized;
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(regularized, supports.size());
}

TEST(KrigingAlloc, ExplicitL1DistanceReloadsAllocateNothing) {
  // The spelling bench/e2e uses: the metric passed as kriging::l1_distance.
  ace::util::Rng rng(9);
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const Support warmup = random_support(kHighWater, rng);
  std::vector<Support> supports;
  for (std::size_t n = 3; n <= kHighWater; n += 4)
    supports.push_back(random_support(n, rng));
  k::KrigingSystem ws({k::SystemKind::kOrdinary}, model, k::l1_distance);
  std::size_t solved = 0;
  EXPECT_EQ(reload_allocations(ws, supports, warmup, solved), 0u);
  EXPECT_EQ(solved, supports.size());
}

TEST(KrigingAlloc, GatherFromStoreIntoWarmWorkspaceAllocatesNothing) {
  ace::util::Rng rng(11);
  d::SimulationStore store;
  for (std::size_t i = 0; i < 300; ++i) {
    d::Config c(kDim);
    for (auto& x : c) x = rng.uniform_int(0, 4);
    store.add(std::move(c), rng.uniform(-10.0, 10.0));
  }
  // Neighbourhoods and queries are found outside the counted region: the
  // search returns an index vector; the workspace path starts at gather.
  std::vector<d::Neighborhood> hoods;
  std::vector<std::vector<double>> queries;
  std::size_t high_water = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    d::Config q(kDim);
    for (auto& x : q) x = rng.uniform_int(0, 4);
    d::Neighborhood hood = store.neighbors_within(q, 3);
    if (hood.count() < 2) continue;
    high_water = std::max(high_water, hood.count());
    hoods.push_back(std::move(hood));
    queries.push_back(d::to_real(q));
  }
  ASSERT_GE(hoods.size(), 10u);

  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  k::KrigingSystem ws({k::SystemKind::kOrdinary}, model);
  k::KrigingResult result;
  const auto load = [&](const d::Neighborhood& hood) {
    ws.load(hood.count(), kDim,
            [&](std::span<double> columns, std::size_t stride,
                std::span<double> values) {
              store.gather_columns(hood, columns, stride, values);
            });
  };
  for (std::size_t i = 0; i < hoods.size(); ++i)
    if (hoods[i].count() == high_water) {
      load(hoods[i]);
      (void)ws.query(queries[i], result);
      break;
    }
  std::size_t solved = 0;
  const std::size_t n = allocations_in([&] {
    for (std::size_t i = 0; i < hoods.size(); ++i) {
      load(hoods[i]);
      solved += ws.query(queries[i], result) ? 1 : 0;
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(solved, hoods.size());

  // The columns reproduce the row gather exactly.
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  store.gather(hoods.front(), points, values);
  k::KrigingSystem rows({k::SystemKind::kOrdinary}, points, values, model);
  load(hoods.front());
  const auto a = rows.query(queries.front());
  const auto b = ws.query(queries.front());
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->estimate, b->estimate);
  EXPECT_EQ(a->weights, b->weights);
}

}  // namespace
