// Native multicore backend: execute a compiled PVSM program directly on
// CPU cores (ISSUE 9; ROADMAP "NFOS-style multicore software-switch
// backend").
//
// Where the simulators model a Banzai machine cycle by cycle, this
// backend runs the same compiled Mp5Program at full speed on a pool of
// worker threads, one per "pipeline", optionally pinned to cores:
//
//   * the dispatcher (caller thread) streams packets from a TraceSource,
//     runs the program's address-resolution block (the D4 resolver) on
//     each packet, and plans every stateful access: resolved index,
//     owning worker, and a per-(register, index) *ticket*;
//   * state ownership is decided by the existing D2 shard map
//     (ShardedState): every register index has exactly one owner worker,
//     pinned arrays map wholly to the pin worker, and — under the dynamic
//     policy — the dispatcher periodically rebalances ownership with the
//     Figure 6 heuristic (an index is only re-homed when no packet is in
//     flight to it, so migration never races an access);
//   * packets travel between cores through SPSC batched rings; a worker
//     executes program stages in order, performs the stateful atoms it
//     owns, and forwards the packet to the owner of the next access;
//   * tickets replay the switch's arrival order per register index: an
//     access executes only when every earlier-admitted claim on that
//     index has executed, which makes the end-to-end result bit-identical
//     to the sequential AstInterp oracle for every core count.
//
// Synchronization is confined to the rings: headers, access plans and
// register values live in plain shared arrays whose handoffs ride the
// rings' release/acquire pairs (see spsc_ring.hpp). Ticket "done"
// counters are only ever touched by the owning worker.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mp5/shard_map.hpp"
#include "mp5/transform.hpp"
#include "native/profiler.hpp"
#include "trace/trace_source.hpp"

namespace mp5::native {

struct NativeOptions {
  /// Worker threads ("pipelines"); state is sharded across them.
  std::uint32_t workers = 1;
  /// Ring push/pop batch size (packets).
  std::uint32_t batch = 32;
  /// Per-ring capacity (rounded up to a power of two).
  std::uint32_t ring_capacity = 1024;
  /// In-flight packet bound (the dispatcher's admission window).
  std::uint32_t pool_packets = 8192;
  /// Ownership policy for shardable registers (the D2 shard map).
  ShardingPolicy policy = ShardingPolicy::kDynamic;
  /// Dispatcher runs a shard rebalance every this many reaped packets
  /// (dynamic/ideal policies only; 0 disables periodic rebalancing).
  std::uint64_t rebalance_packets = 8192;
  std::uint64_t seed = 1;
  /// Pin worker i to the (i mod n)-th of the n CPUs in its affinity mask
  /// (Linux only; silently best-effort elsewhere).
  bool pin_threads = true;
  /// Per-worker and dispatcher busy/idle wall-clock accounting (adds a
  /// clock read per loop iteration of each thread; counters are always
  /// collected regardless).
  bool profile = false;
  /// Receives each packet's record when the dispatcher reaps it, on the
  /// dispatcher thread, in reap order: seq and the declared header fields
  /// (the backend has no clock and no flows, so egress_cycle and flow
  /// are 0).
  std::function<void(EgressRecord&&)> egress_sink;
};

struct NativeResult {
  std::uint64_t packets = 0;
  double seconds = 0.0;
  double pkts_per_sec = 0.0;
  std::uint64_t shard_moves = 0;
  std::uint64_t rebalances = 0;
  /// Final register state, flattened per RegisterSpec (oracle-comparable).
  std::vector<std::vector<Value>> final_registers;
  NativeProfile profile;
};

class NativeBackend {
public:
  /// Throws ConfigError on unusable options (workers == 0, batch larger
  /// than the rings, a pool too small to keep every worker busy).
  NativeBackend(const Mp5Program& program, const NativeOptions& opts);
  ~NativeBackend();

  NativeBackend(const NativeBackend&) = delete;
  NativeBackend& operator=(const NativeBackend&) = delete;

  /// Drain the source to exhaustion. Single-shot: construct a fresh
  /// backend per run.
  NativeResult run(TraceSource& source);

private:
  struct Impl;
  Impl* impl_;
};

} // namespace mp5::native
