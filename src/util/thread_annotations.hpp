// Clang thread-safety (capability) analysis macros.
//
// The concurrent subsystems (thread pool, simulation store, kriging
// policy, checkpointing, session service) document their lock
// discipline with these annotations so a Clang build with -Wthread-safety
// -Werror *proves* the discipline at compile time — a data race that TSan
// could only catch on an execution that happens to interleave badly is
// rejected before the binary exists. On compilers without the capability
// attributes (GCC) every macro expands to nothing, so the annotations are
// pure documentation there and the build is unchanged.
//
// Convention: shared mutable members carry ACE_GUARDED_BY(mutex_); private
// helpers called only under a lock carry ACE_REQUIRES(mutex_); the only
// lock types used outside src/util/ are the annotated wrappers in
// util/mutex.hpp (enforced by tools/lint/ace_lint.py rule `raw-mutex`).
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define ACE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ACE_THREAD_ANNOTATION_(x)  // expands to nothing on GCC/MSVC
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define ACE_CAPABILITY(x) ACE_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose lifetime acquires/releases a capability.
#define ACE_SCOPED_CAPABILITY ACE_THREAD_ANNOTATION_(scoped_lockable)

/// Data member may only be touched while holding the given capability.
#define ACE_GUARDED_BY(x) ACE_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability.
#define ACE_PT_GUARDED_BY(x) ACE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function may only be called while already holding the capabilities.
#define ACE_REQUIRES(...) \
  ACE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capabilities and holds them on return.
#define ACE_ACQUIRE(...) \
  ACE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capabilities (held on entry, not on return).
#define ACE_RELEASE(...) \
  ACE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define ACE_TRY_ACQUIRE(...) \
  ACE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capabilities (deadlock prevention).
#define ACE_EXCLUDES(...) ACE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Lock-hierarchy edge: this capability must be acquired before the listed
/// ones. Enforced by Clang under -Wthread-safety-beta (the `tidy` preset);
/// the same ordering is checked at runtime in Debug builds by the
/// lock-order validator (util/lock_order.hpp), which also covers edges the
/// attribute cannot express — ordering between mutexes of *different*
/// classes, where neither declaration can name the other.
#define ACE_ACQUIRED_BEFORE(...) \
  ACE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// Lock-hierarchy edge: this capability must be acquired after the listed
/// ones (the dual of ACE_ACQUIRED_BEFORE; same enforcement).
#define ACE_ACQUIRED_AFTER(...) \
  ACE_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define ACE_RETURN_CAPABILITY(x) ACE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: function body is exempt from analysis. Reserved for the
/// annotated-wrapper internals in util/mutex.hpp — library code must not
/// use it (the static-analysis gate greps for strays).
#define ACE_NO_THREAD_SAFETY_ANALYSIS \
  ACE_THREAD_ANNOTATION_(no_thread_safety_analysis)
