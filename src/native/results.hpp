// The "mp5-native-results" document (DESIGN.md "Native multicore
// backend") in the run envelope (telemetry/run_envelope.hpp): meta (the
// options), throughput.packets, sharding.policy and the oracle verdict,
// digest native_result_digest, and a profile holding what wall time and
// thread interleaving decide: throughput seconds and pkts_per_sec, shard
// moves and rebalances, and the whole profiler.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "metrics/equivalence.hpp"
#include "native/backend.hpp"

namespace mp5::native {

/// Digest of what the oracle fixes for a run (the paper's Theorem 1): the
/// packet count and the final registers. One digest for every core count
/// and policy, checked or not.
std::uint64_t native_result_digest(const NativeResult& result);

/// `oracle` is the --check verdict, null when the run was not checked.
void write_native_results_json(std::ostream& out, const std::string& program,
                               const NativeOptions& opts,
                               const NativeResult& result,
                               const EquivalenceReport* oracle);

} // namespace mp5::native
