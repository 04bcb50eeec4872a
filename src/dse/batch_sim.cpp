#include "dse/batch_sim.hpp"

#include <exception>

#include "util/thread_pool.hpp"

namespace ace::dse {

std::vector<util::GuardedCall> PooledBatchSimulator::simulate_many(
    const std::vector<Config>& configs) {
  std::vector<util::GuardedCall> sims(configs.size());
  const std::vector<util::TaskError> errors =
      util::parallel_for_indexed_collect(
          pool_, configs.size(), [&](std::size_t s) {
            sims[s] = util::call_with_retry(
                retry_, [&] { return simulate_(configs[s]); });
          });
  for (const util::TaskError& err : errors) {
    util::GuardedCall& g = sims[err.index];
    g = {};
    g.fault = util::CallFault::kThrew;
    g.attempts = 1;
    g.faulted_attempts = 1;
    try {
      std::rethrow_exception(err.error);
    } catch (const std::exception& e) {
      g.message = e.what();
    } catch (...) {
      g.message = "non-standard exception";
    }
  }
  return sims;
}

}  // namespace ace::dse
