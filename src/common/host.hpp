// What the host lets this process run on: the CPU probes the native
// backend sizes its spinning by, mp5native's --cores warning reads and
// every results document records in its "host" section.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mp5::host {

/// CPUs the calling thread may run on: the size of its sched_getaffinity
/// mask on Linux (so taskset and cpusets count); hardware_concurrency
/// elsewhere (0 when unknown).
std::uint32_t affinity_cpus();

/// The CPUs this process's cgroup v2 `cpu.max` quota allows (read once);
/// nullopt when there is no quota.
std::optional<std::uint32_t> cgroup_cpu_limit();

/// affinity_cpus(), capped by cgroup_cpu_limit() when one is set.
std::uint32_t usable_cpus();

/// CPUs a cgroup v2 `cpu.max` line ("<quota> <period>") allows:
/// ceil(quota / period). nullopt for "max" (no quota) and for text that
/// does not parse.
std::optional<std::uint32_t> cpu_max_limit(const std::string& cpu_max);

} // namespace mp5::host
