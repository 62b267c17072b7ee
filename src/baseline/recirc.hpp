// State-of-the-art multi-pipelined switch baseline (§2.3): static port-to-
// pipeline mapping, no state sharing between pipelines, and packet
// re-circulation as the only way to reach state in another pipeline.
//
// Model: k independent linear Banzai pipelines. Register state is sharded
// statically at compile time (random placement, never rebalanced; pinned
// arrays in pipeline 0). A packet is processed by the pipeline its ingress
// port maps to; any planned access whose state lives in the current
// pipeline executes as the packet passes the corresponding stage. If
// accesses remain when the packet reaches the end of the pipeline, it is
// re-circulated: re-injected into the ingress queue of the pipeline
// holding the next pending state, competing with fresh arrivals for the
// one-packet-per-cycle admission slot. This reproduces both documented
// costs of recirculation: the throughput penalty (each pass consumes a
// pipeline traversal) and the C1 order violations from the recirculation
// delay (§2.3.1, Example 2).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "metrics/c1_checker.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/shard_map.hpp"
#include "mp5/transform.hpp"
#include "trace/trace_source.hpp"

namespace mp5 {

struct RecircOptions {
  std::uint32_t pipelines = 4;
  std::uint32_t ports = 64;
  /// Per-pipeline ingress queue bound; fresh arrivals are tail-dropped
  /// when it is full (recirculated packets always re-enter, with priority,
  /// as on production switches). 0 = unbounded.
  std::size_t ingress_capacity = 64;
  std::uint64_t max_cycles = 5'000'000;
  std::uint64_t seed = 1;
  /// Receives each egressed packet's record, as SimOptions::egress_sink.
  std::function<void(EgressRecord&&)> egress_sink;
  /// Receives each ingress tail drop (seq, state untouched), as
  /// SimOptions::fault_drop_sink.
  std::function<void(SeqNo, bool)> fault_drop_sink;
};

class RecircSimulator {
public:
  RecircSimulator(const Mp5Program& program, const RecircOptions& options);

  SimResult run(const Trace& trace);
  /// Streaming variant: pull packets from a TraceSource, one at a time.
  SimResult run(TraceSource& source);

private:
  void admit(const TraceItem& item, Cycle now);
  void step_cell(PipelineId p, StageId st, Cycle now);
  void resolve_conservative_guards(Packet& pkt, StageId done_stage);
  void finish_pass(Packet&& pkt, PipelineId p, Cycle now);

  const Mp5Program* prog_;
  RecircOptions opts_;
  StageId num_stages_;
  std::uint32_t k_;

  std::unique_ptr<ShardedState> state_;
  std::vector<std::vector<std::optional<Packet>>> cells_; // [pipeline][stage]
  std::vector<std::deque<Packet>> ingress_;

  SeqNo next_seq_ = 0;
  std::uint64_t live_packets_ = 0;
  std::size_t max_ingress_depth_ = 0;

  SimResult result_;
  C1Checker c1_;
};

} // namespace mp5
