// Shared invariant helpers for the libFuzzer harnesses.
//
// Harness contract (every fuzz_*.cpp in this directory): the decoder
// under test either rejects the bytes with the std::runtime_error its
// header documents or produces an object that round-trips
// byte-identically through its serialiser. Any other exception type is a
// finding (wrong_exception), as is a decoder that —
// it never crashes, never leaves a half-built object, and never
// allocates beyond the loader caps (the CI fuzz job enforces the memory
// side with -rss_limit_mb/-malloc_limit_mb). A violated invariant calls
// fail(), whose abort() is what libFuzzer (or the replay driver + ctest)
// reports as a crash.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>

namespace ranm::fuzz {

[[noreturn]] inline void fail(const char* harness, const char* what) {
  std::fprintf(stderr, "%s: invariant violated: %s\n", harness, what);
  std::abort();
}

inline void require(bool ok, const char* harness, const char* what) {
  if (!ok) fail(harness, what);
}

/// For a decoder that threw something other than std::runtime_error: a
/// caller catching the documented type would let it escape.
[[noreturn]] inline void wrong_exception(const char* harness,
                                         const std::exception& e) {
  std::fprintf(stderr, "%s: decoder threw a type other than "
                       "std::runtime_error: %s\n", harness, e.what());
  std::abort();
}

}  // namespace ranm::fuzz
