/// \file
/// Macros mapping to Clang's Thread Safety Analysis attributes.
///
/// The repo's locking discipline (which field is guarded by which mutex,
/// which methods require or acquire which lock, and the lock hierarchy —
/// see DESIGN.md §12) is written down with these macros so that a Clang
/// build with -Wthread-safety turns a violated invariant into a compile
/// error. Under GCC (or Clang without the analysis) every macro expands
/// to nothing, so annotated code stays portable.
///
/// Enable checking with:  cmake -DNADREG_THREAD_SAFETY=ON  (Clang only),
/// which adds -Wthread-safety -Werror. The annotated primitives these
/// macros decorate live in common/sync.h (nadreg::Mutex / MutexLock /
/// CondVar); raw std::mutex is banned outside src/common/ by nadlint
/// (scripts/nadlint/).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define NADREG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NADREG_THREAD_ANNOTATION(x)  // no-op
#endif

/// Declares a data member readable/writable only while holding `x`.
#define GUARDED_BY(x) NADREG_THREAD_ANNOTATION(guarded_by(x))

/// Declares that the pointed-to data (not the pointer) is guarded by `x`.
#define PT_GUARDED_BY(x) NADREG_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities.
#define REQUIRES(...) \
  NADREG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and does not release them.
#define ACQUIRE(...) NADREG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities (held on entry).
#define RELEASE(...) NADREG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function must NOT be called while holding the listed capabilities
/// (deadlock prevention: it acquires them itself).
#define EXCLUDES(...) NADREG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  NADREG_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Declares a type to be a capability (lockable) with the given name.
#define CAPABILITY(x) NADREG_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime brackets a capability.
#define SCOPED_CAPABILITY NADREG_THREAD_ANNOTATION(scoped_lockable)

/// Asserts at runtime (to the analysis: promises) the capability is held.
#define ASSERT_CAPABILITY(x) NADREG_THREAD_ANNOTATION(assert_capability(x))

/// Documents lock-ordering: this mutex must be acquired after the listed ones.
#define ACQUIRED_AFTER(...) NADREG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Documents lock-ordering: this mutex must be acquired before the listed ones.
#define ACQUIRED_BEFORE(...) \
  NADREG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) NADREG_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot follow (e.g. locking a
/// dynamic collection of stripes). Use sparingly, with a comment.
#define NO_THREAD_SAFETY_ANALYSIS \
  NADREG_THREAD_ANNOTATION(no_thread_safety_analysis)
