#pragma once
/// \file memory.hpp
/// Process memory introspection: peak resident set size, reported by
/// perfbench's `peak_rss_mb` (where `torus-stream` shows that the streaming
/// request loop runs in O(n) space regardless of trace length) and
/// checked by `scenario_runner --max-rss-mb`.

#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace proxcache {

/// Peak resident set size of the calling process in bytes; 0 when the
/// platform offers no getrusage. Linux reports ru_maxrss in KiB, macOS in
/// bytes.
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

}  // namespace proxcache
