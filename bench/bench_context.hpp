// Run context of the committed BENCH_*.json snapshots written by
// gate_compare and session_server: this build's type and configure-time
// commit (compile definitions from bench/CMakeLists.txt, "-dirty" when the
// work tree had local changes) and the CPU count. micro_kriging records
// the same build type and commit in google-benchmark's context, which
// carries the CPU count itself.
#pragma once

#include <ostream>
#include <thread>

namespace ace::bench {

/// Writes the `"context": {...},` member line, indented by `indent`.
inline void write_context_json(std::ostream& os, const char* indent) {
  os << indent << "\"context\": {\"ace_build_type\": \"" << ACE_BENCH_BUILD_TYPE
     << "\", \"ace_git_sha\": \"" << ACE_BENCH_GIT_SHA
     << "\", \"nproc\": " << std::thread::hardware_concurrency() << "},\n";
}

}  // namespace ace::bench
