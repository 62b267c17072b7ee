// Configuration of the MP5 switch simulator and its ablated variants
// (SimOptions), and of the replicated-state baselines (ReplicatedOptions).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mp5/faults.hpp"
#include "mp5/shard_map.hpp"
#include "mp5/timeline.hpp"
#include "packet/packet.hpp"

namespace mp5 {

namespace telemetry {
class Telemetry;
}

struct SimOptions {
  /// Number of parallel pipelines (k). The paper's default is 4 (§4.3.1).
  std::uint32_t pipelines = 4;

  /// Per-lane FIFO capacity at each stateful stage; 0 = unbounded, which
  /// models the paper's "dynamically adapt per-stage FIFO sizes to ensure
  /// no packet loss" simulator configuration (§4.3.1). The ASIC sizing of
  /// §4.2 uses 8 entries per lane.
  std::size_t fifo_capacity = 0;

  /// Dynamic-state-sharding period in cycles (Figure 6 runs "every few
  /// 100s of clock cycles"; the experiments use 100). Ignored for static
  /// sharding policies.
  std::uint32_t remap_period = 100;

  ShardingPolicy sharding = ShardingPolicy::kDynamic;

  /// Design principle D4 (phantom packets), sent on §3.3's separate
  /// channel: a phantom generated at arrival hops one stage per cycle and
  /// reaches stage s after s cycles, ahead of its data packet, which needs
  /// ingress plus s processing cycles (Invariant 1). Disabling reproduces the
  /// "MP5 w/ D1-D3 but w/o D4" ablation of Figure 3 / §4.3.2: stateful
  /// packets are queued directly on arrival at the stateful stage, so
  /// ordering holds only among packets already present.
  bool phantoms = true;

  /// Ideal MP5 upper bound (§3.5.2/§4.3.3): per-register-index ordering
  /// (no head-of-line blocking), free reclamation of cancelled phantoms.
  /// Usually combined with ShardingPolicy::kIdealLpt.
  bool ideal_queues = false;

  /// Naive shared-memory design from D1's discussion: all state pinned to
  /// pipeline 0 and every packet admitted to pipeline 0. Forces
  /// ShardingPolicy::kSinglePipeline.
  bool naive_single_pipeline = false;

  /// Starvation guard (§3.4): when a stage's oldest queued stateful entry
  /// has waited more than this many cycles, an arriving stateless
  /// pass-through packet is dropped instead of being served with priority,
  /// freeing the slot for the queue. Invariant 2 still holds (the
  /// stateless packet is dropped, never queued). 0 = disabled.
  std::uint64_t starvation_threshold = 0;

  /// ECN-style backpressure (§3.4): mark a data packet when it joins a
  /// stage FIFO whose occupancy exceeds this threshold. The mark is
  /// metadata (SimResult::ecn_marked counts them); a sender reacting to it
  /// is outside the switch model. 0 = disabled.
  std::size_t ecn_threshold = 0;

  /// Safety valve for runaway runs; tests assert it is never hit.
  std::uint64_t max_cycles = 5'000'000;

  std::uint64_t seed = 1;

  /// Scheduled fault injection (see faults.hpp). An empty plan is a
  /// fault-free run. Validated at simulator construction; pipeline
  /// failures require a sharding policy that can re-home state (not
  /// kSinglePipeline).
  FaultPlan faults;

  /// Per-cycle runtime invariant watchdog: validates Invariant 1 (per-lane
  /// FIFO ordering), Invariant 2 (queued entries are stateful), FIFO
  /// occupancy and live-packet accounting, phantom-directory/channel
  /// consistency, and that every state access executes at the index its
  /// packet planned at arrival, throwing InvariantError instead of
  /// silently corrupting results. Costs O(queued entries) per cycle —
  /// opt-in for tests and debugging.
  bool paranoid_checks = false;

  // -- soak mode: checkpointing and streaming sinks (ISSUE 6) --

  /// Checkpoint every N cycles (0 = disabled). Requires checkpoint_sink.
  /// The checkpoint is taken at the top of the cycle, before that cycle's
  /// fault events and arrivals; idle-cycle jumps are clamped so no
  /// boundary is skipped (behavior-neutral: the extra boundary cycles are
  /// provable no-ops). Restoring from any emitted checkpoint reproduces
  /// the uninterrupted run's SimResult field-by-field.
  std::uint64_t checkpoint_interval = 0;

  /// Receives each framed `mp5-checkpoint v1` blob (see mp5/checkpoint.hpp
  /// for the file helpers). Called from the run loop; keep it cheap or
  /// accept the stall.
  std::function<void(Cycle, std::string&&)> checkpoint_sink;

  /// Receives each egressed packet's record (seq, egress cycle, flow,
  /// final headers) in egress order. The only way per-packet output
  /// leaves the simulator: nothing accumulates in SimResult, so a sink
  /// that discards what it has read keeps memory flat at any length.
  std::function<void(EgressRecord&&)> egress_sink;

  /// Receives every dropped data packet (seq, state_touched), whatever
  /// the cause: an injected fault, a missing phantom at a bounded FIFO,
  /// or the starvation guard. `state_touched` says whether some of the
  /// packet's state accesses had executed, so its partial effects remain
  /// in the registers. The name predates the wider contract.
  std::function<void(SeqNo, bool)> fault_drop_sink;

  /// Optional per-event instrumentation hook (tests, mp5sim --timeline).
  TimelineHook timeline;

  /// Optional telemetry sink (non-owning; see src/telemetry/). The run
  /// counts its events whether or not one is attached; at the end of the
  /// run (run, finish or resume) the simulator writes every counter, gauge
  /// and histogram into it, and during the run its event ring records the
  /// cycle-level timeline. Attaching one changes neither the SimResult nor
  /// the cycle walk.
  telemetry::Telemetry* telemetry = nullptr;

  /// Name prefix for every metric this simulator exports (e.g.
  /// "fabric.leaf0."). The registry is find-or-create by flat name, so two
  /// simulators sharing one Telemetry MUST use distinct prefixes or their
  /// counters silently merge. Empty (the default) keeps the classic flat
  /// single-simulator names ("sim.admitted", "fifo.push", ...).
  std::string telemetry_prefix;
};

/// Configuration of ReplicatedSimulator (src/baseline/replicated.hpp), the
/// replicated-state baselines MP5 is compared against. Every pipeline holds
/// a full register replica; the designs differ only in when remote updates
/// are replayed:
///   * staleness_bound == 0 — State-Compute Replication (Xu et al., arXiv
///     2309.14647): replay after one pipeline traversal.
///   * staleness_bound >= 1 — relaxed consistency (Cascone et al., arXiv
///     1703.05442): replay at every cycle divisible by Δ = staleness_bound,
///     so a read observes remote state at most Δ cycles stale.
/// Both are part of the checkpoint config fingerprint.
struct ReplicatedOptions {
  std::uint32_t pipelines = 4;
  std::uint32_t staleness_bound = 0;
  /// Safety valve for runaway runs.
  std::uint64_t max_cycles = 5'000'000;
  /// Per-cycle live-packet accounting check (throws Error on mismatch).
  bool paranoid_checks = false;
  /// Checkpoint every N cycles (0 = disabled). Requires checkpoint_sink.
  std::uint64_t checkpoint_interval = 0;
  std::function<void(Cycle, std::string&&)> checkpoint_sink;
  /// Receives each egressed packet's record, as SimOptions::egress_sink.
  /// The designs are lossless, so there is no drop sink.
  std::function<void(EgressRecord&&)> egress_sink;
};

} // namespace mp5
