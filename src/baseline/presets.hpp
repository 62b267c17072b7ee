// Ready-made simulator configurations for the designs compared in §4.3.2:
// full MP5, the ablations (no dynamic sharding, no phantom ordering), the
// naive single-pipeline-state design, and the ideal upper bound.
#pragma once

#include "mp5/options.hpp"

namespace mp5 {

/// Full MP5 (D1-D4), unbounded adaptive FIFOs, dynamic sharding @100cyc.
SimOptions mp5_options(std::uint32_t pipelines, std::uint64_t seed);

/// MP5 without D2: state sharded randomly at compile time, never moved.
SimOptions no_d2_options(std::uint32_t pipelines, std::uint64_t seed);

/// MP5 without D4: no phantom packets; order holds only among packets
/// already queued at a stage (Figure 3 Table II behaviour).
SimOptions no_d4_options(std::uint32_t pipelines, std::uint64_t seed);

/// Naive shared-memory design: all state and all packets in pipeline 0.
SimOptions naive_options(std::uint32_t pipelines, std::uint64_t seed);

/// Ideal MP5 (§3.5.2): per-index queues (no head-of-line blocking), free
/// cancellation, LPT re-sharding.
SimOptions ideal_options(std::uint32_t pipelines, std::uint64_t seed);

/// State-Compute Replication: per-pipeline full register replicas, remote
/// updates replayed after one pipeline traversal. Consumed by
/// ReplicatedSimulator (src/baseline/replicated.hpp).
ReplicatedOptions scr_options(std::uint32_t pipelines);

/// Relaxed-consistency replication: per-pipeline full register replicas,
/// remote updates batched to every `staleness` cycles. Consumed by
/// ReplicatedSimulator. Default bound 64 cycles.
ReplicatedOptions relaxed_options(std::uint32_t pipelines,
                                  std::uint32_t staleness = 64);

} // namespace mp5
