// NFOS-style scalability profiler for the native multicore backend.
//
// Answers the question the ROADMAP item poses: *which register serializes
// scaling?* Every worker keeps private per-worker and per-register
// counters (no shared cache lines on the hot path); the backend merges
// them after the run and computes, per register, how large a share of all
// packets funneled through that register's single busiest owner core. The
// register with the largest such share is the serialization bottleneck in
// the Amdahl sense: its owner must touch that fraction of the workload
// serially no matter how many cores are added (cf. NFOS's packet-set
// state, scalability-profiler.c).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mp5::native {

/// Per-worker accounting, merged from each worker's private copy.
struct WorkerStats {
  std::uint64_t hops = 0;       // packet visits processed (incl. re-tries)
  std::uint64_t stages = 0;     // program stages executed
  std::uint64_t accesses = 0;   // stateful atoms executed with state access
  std::uint64_t forwards = 0;   // packets forwarded to another worker
  std::uint64_t parks = 0;      // head-of-line waits on an access ticket
  std::uint64_t idle_spins = 0; // loop iterations with nothing to do
  std::uint64_t busy_ns = 0;    // wall time of productive iterations
  std::uint64_t idle_ns = 0;    // wall time of idle iterations
};

/// Dispatcher accounting: the one serial thread that admits, resolves,
/// plans and reaps every packet. Counters are always collected; the
/// wall-clock split only with NativeOptions::profile.
struct DispatcherStats {
  std::uint64_t admitted = 0;   // packets admitted from the trace
  std::uint64_t reaped = 0;     // egressed packets recycled
  std::uint64_t idle_spins = 0; // loop iterations with nothing to do
  std::uint64_t pool_full = 0;  // iterations admission stopped on a full pool
  std::uint64_t busy_ns = 0;    // wall time of productive iterations
  std::uint64_t idle_ns = 0;    // wall time of idle iterations
};

/// Per-register contention accounting (merged across workers).
struct RegisterStats {
  std::string name;
  std::uint64_t claimed = 0;   // accesses planned/ticketed at dispatch
  std::uint64_t performed = 0; // accesses whose guard passed at execution
  std::uint64_t remote = 0;    // performed for packets that hopped cores
  std::uint64_t parks = 0;     // ticket waits observed at this register
  std::uint32_t busiest_owner = 0;
  std::uint64_t busiest_owner_accesses = 0;
  /// busiest_owner_accesses / claimed (0 when never accessed).
  double owner_share = 0.0;
};

struct NativeProfile {
  std::vector<WorkerStats> workers;
  DispatcherStats dispatcher;
  std::vector<RegisterStats> registers;
  /// Register whose busiest single owner had to serially execute the
  /// largest fraction of the run; empty when the program has no claimed
  /// state accesses.
  std::string serializing_register;
  /// That fraction, relative to total packets: ~1.0 means every packet
  /// serialized through one core (a global counter), ~1/k means the
  /// register shards perfectly.
  double serial_fraction = 0.0;
};

/// Worker-private scratch: one instance per worker, merged post-run.
struct WorkerScratch {
  WorkerStats stats;
  std::vector<std::uint64_t> reg_claimed;   // executed claims (ticket bumps)
  std::vector<std::uint64_t> reg_performed;
  std::vector<std::uint64_t> reg_remote;
  std::vector<std::uint64_t> reg_parks;

  explicit WorkerScratch(std::size_t regs)
      : reg_claimed(regs, 0), reg_performed(regs, 0), reg_remote(regs, 0),
        reg_parks(regs, 0) {}
};

} // namespace mp5::native
