// Planted optimizer-dispatch violations. The basename matches the
// optimizer_dispatch scope, so the rule is active here, as it is in src/
// outside dse/optimizer.{hpp,cpp}. This file is a fixture — it is never
// compiled.
namespace fixture_optimizer_dispatch {

double floor_of(const Bench& bench) {
  if (bench.optimizer == OptimizerKind::kMinPlusOne)  // expect(optimizer-dispatch)
    return bench.min_plus_one.lambda_min;
  if (dse::OptimizerKind::kSteepestDescent != bench.optimizer)  // expect(optimizer-dispatch)
    return 0.0;
  return bench.optimizer != core::OptimizerKind::kMinPlusOne  // expect(optimizer-dispatch)
             ? bench.sensitivity.lambda_min
             : 0.0;
}

int tag(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kMinPlusOne:  // expect(optimizer-dispatch)
      return 0;
    case dse::OptimizerKind::kSteepestDescent:  // expect(optimizer-dispatch)
      return 1;
  }
  return -1;
}

void choosing_is_fine(Spec& spec, Bench& bench) {
  spec.optimizer = OptimizerKind::kMinPlusOne;  // assignment: silent
  OptimizerKind kind = OptimizerKind::kSteepestDescent;  // init: silent
  const bool same = kind == spec.optimizer;  // no enumerator: silent
  (void)same;
  (void)bench;
}

bool suppressed(const Bench& bench) {
  // A deliberate exception must say so:
  return bench.optimizer == OptimizerKind::kMinPlusOne;  // ace-lint: allow(optimizer-dispatch)
}

// Comments mentioning optimizer == OptimizerKind::kMinPlusOne are fine;
// so are strings:
inline const char* kDoc = "optimizer == OptimizerKind::kMinPlusOne";

}  // namespace fixture_optimizer_dispatch
