// Replicated-state design variants (ISSUE 10): State-Compute Replication
// and relaxed-consistency replication, the two published alternatives to
// MP5's shared-state D1-D4 design.
//
// Shared model (ReplicatedSimulator): k independent linear pipelines, each
// holding a FULL replica of every register array. An arriving packet is
// sprayed to pipeline seq % k and executes the whole program against that
// pipeline's local replica — no cross-pipeline steering, no phantoms, no
// sharding. Whenever a packet finishes a stateful stage, a *digest*
// (the packet's header snapshot at stage entry) is broadcast to the other
// replicas, which replay the stage's compute against their own local state
// when the digest is delivered. The two variants differ only in when
// delivery happens, selected by ReplicatedOptions::staleness_bound:
//
//   * SCR (staleness_bound == 0; Xu et al., arXiv 2309.14647): the digest
//     rides a dedicated replication channel and is replayed after one
//     pipeline traversal — delivery at `execution cycle + num_stages`.
//   * relaxed (staleness_bound = Δ >= 1; Cascone et al., arXiv
//     1703.05442): digests are buffered and applied only at periodic
//     synchronization boundaries, every Δ cycles — a read observes remote
//     updates at most Δ cycles stale.
//
// Neither variant enforces C1: a read on one replica can miss a
// concurrent update executed on another, which is exactly where these
// designs diverge from the single-pipeline reference while MP5 does not.
// The differential fuzzer classifies each generated program as equivalent
// or divergent per variant (src/fuzz/differ.hpp) and shrinks the
// divergent-where-MP5-isn't cases into committed witnesses.
//
// The simulator takes ReplicatedOptions (mp5/options.hpp), which holds
// only what these designs read; MP5's knobs (sharding, phantoms, faults,
// telemetry, ...) cannot be passed to it. Checkpoint/restore uses the
// mp5-checkpoint v1 framing; the config fingerprint covers the design and
// the staleness bound, so cross-design restores are refused.
// Idle cycles with nothing in flight are always jumped, bit-identically
// (including cycles_run) to stepping them one by one.
#pragma once

#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "banzai/ir.hpp"
#include "metrics/c1_checker.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/options.hpp"
#include "mp5/transform.hpp"
#include "trace/trace.hpp"

namespace mp5 {

class ByteReader;

class ReplicatedSimulator {
public:
  ReplicatedSimulator(const Mp5Program& program,
                      const ReplicatedOptions& options);

  SimResult run(const Trace& trace);

  /// Restore from an mp5-checkpoint v1 blob emitted by a checkpoint_sink
  /// and finish the run. The config fingerprint (which covers the design
  /// and staleness_bound) must match; requires a freshly constructed
  /// simulator.
  SimResult resume(const Trace& trace, std::string_view checkpoint_blob);

private:
  /// One broadcast state update: replay stage `stage` of packet `seq`
  /// (headers snapshotted at stage entry) on every replica except
  /// `origin`, at cycle `deliver`.
  struct Digest {
    Cycle deliver = 0;
    SeqNo seq = 0;
    StageId stage = 0;
    PipelineId origin = 0;
    std::vector<Value> headers;
  };

  /// In-flight packet; replicated designs need no access plan (every
  /// replica holds all state), so this is leaner than packet/packet.hpp.
  struct Pkt {
    SeqNo seq = 0;
    Cycle arrival_cycle = 0;
    std::uint64_t flow = 0;
    std::vector<Value> headers;
  };

  SimResult run_loop(const Trace& trace, Cycle start);
  void admit(const TraceItem& item, Cycle now);
  void step_cell(PipelineId p, StageId st, Cycle now);
  void apply_due_digests(Cycle now);
  /// Delivery cycle for a digest generated at `now` (design-specific).
  Cycle deliver_cycle(Cycle now) const;
  bool heap_greater(const Digest& a, const Digest& b) const;
  void push_digest(Digest&& d);
  void pop_digest();
  void check_accounting(Cycle now) const;
  void do_checkpoint(Cycle now);
  /// The one checkpoint listing behind serialize_state and restore_state.
  template <class Io> void transfer(Io& io, Cycle& now);
  std::string serialize_state(Cycle now) const;
  Cycle restore_state(ByteReader& r);

  const Mp5Program* prog_;
  ReplicatedOptions opts_;
  std::uint32_t k_ = 0;
  StageId num_stages_ = 0;

  /// Per-pipeline full register replica. final_registers = replica 0
  /// (all replicas agree once every digest has been applied).
  std::vector<ir::FlatRegFile> replicas_;
  std::vector<std::vector<std::optional<Pkt>>> cells_; // [pipeline][stage]
  std::vector<std::deque<Pkt>> ingress_;
  /// Min-heap ordered by (deliver, seq, stage): replay happens in packet
  /// history order regardless of generation interleaving.
  std::vector<Digest> digests_;

  std::size_t cursor_ = 0;
  SeqNo next_seq_ = 0;
  std::uint64_t live_packets_ = 0;
  std::size_t max_ingress_depth_ = 0;
  Cycle next_checkpoint_ = 0;
  bool ran_ = false;

  SimResult result_;
  C1Checker c1_;
};

} // namespace mp5
