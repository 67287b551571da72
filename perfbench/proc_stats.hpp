// Process-level probes for the benchmark harness: CPU time of the whole
// process or of the calling thread, and an RSS high-water mark that can be
// restarted after set-up. The lifetime peak comes from the bench harnesses'
// shared probe, bench/support/rss.hpp.
#pragma once

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstddef>
#include <fstream>
#include <string>

#include "../bench/support/rss.hpp"

namespace botmeter::perfbench {

using bench::peak_rss_bytes;

namespace detail {
inline double cpu_seconds(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}
}  // namespace detail

/// User + system CPU seconds of every thread of this process so far.
inline double process_cpu_seconds() { return detail::cpu_seconds(RUSAGE_SELF); }

/// User + system CPU seconds of the calling thread so far (Linux).
inline double thread_cpu_seconds() { return detail::cpu_seconds(RUSAGE_THREAD); }

/// Returns freed heap to the kernel, then restarts the RSS high-water mark
/// at the current RSS, so peak_rss_since_reset() sees only what is resident
/// from here on. Linux; elsewhere the mark keeps covering the whole process.
inline void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The RSS high-water mark in bytes (VmHWM), or the lifetime peak where
/// /proc/self/status does not report one.
inline std::size_t peak_rss_since_reset() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return peak_rss_bytes();
}

}  // namespace botmeter::perfbench
