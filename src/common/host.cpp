#include "common/host.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace mp5::host {

std::optional<std::uint32_t> cpu_max_limit(const std::string& cpu_max) {
  std::istringstream in(cpu_max);
  std::string quota;
  std::string period;
  std::string extra;
  if (!(in >> quota >> period) || (in >> extra) || quota == "max") {
    return std::nullopt;
  }
  const auto number = [](const std::string& text) -> std::uint64_t {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    return ec == std::errc{} && stop == end ? v : 0;
  };
  const std::uint64_t q = number(quota);
  const std::uint64_t p = number(period);
  if (q == 0 || p == 0) return std::nullopt;
  const std::uint64_t cpus = q / p + (q % p != 0 ? 1 : 0);
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      cpus, std::numeric_limits<std::uint32_t>::max()));
}

std::uint32_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint32_t>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

std::optional<std::uint32_t> cgroup_cpu_limit() {
  // The quota belongs to the container, not the thread: read it once.
  static const std::optional<std::uint32_t> quota =
      []() -> std::optional<std::uint32_t> {
    std::ifstream cgroup("/sys/fs/cgroup/cpu.max");
    std::string line;
    if (!std::getline(cgroup, line)) return std::nullopt;
    return cpu_max_limit(line);
  }();
  return quota;
}

std::uint32_t usable_cpus() {
  const std::uint32_t cpus = affinity_cpus();
  const auto quota = cgroup_cpu_limit();
  if (!quota) return cpus;
  return cpus == 0 ? *quota : std::min(cpus, *quota);
}

} // namespace mp5::host
