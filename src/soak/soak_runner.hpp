// Crash-recoverable soak driver (ISSUE 6 tentpole).
//
// run_soak() wires the streaming pieces into one billion-packet-capable
// harness: a TraceSource feeds the simulator, a second source over the
// same stream feeds the RollingVerifier via the egress/fault-drop sinks
// (so nothing accumulates in SimResult), and every checkpoint_interval
// cycles the complete simulator + verifier state is written atomically to
// one file. A crashed (even SIGKILLed) soak resumes from that file and
// finishes with the same SimResult as an uninterrupted run.
//
// Soak checkpoint file layout: two `mp5-checkpoint v1` frames back to
// back — the simulator frame first (so external tools can sniff the magic
// at offset 0), then the verifier frame carrying RollingVerifier state.
// Both land in a single atomic rename, so there is no crash window in
// which the two halves disagree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "metrics/equivalence.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/options.hpp"
#include "mp5/transform.hpp"
#include "trace/trace_source.hpp"

namespace mp5::soak {

struct SoakOptions {
  /// CSV trace file to stream, in admission order. When empty the
  /// deterministic synthetic generator below supplies the packets.
  std::string trace_path;
  SyntheticSpec synthetic;

  /// Base simulator configuration. The checkpoint knobs
  /// (checkpoint_interval / checkpoint_sink) and the streaming sinks are
  /// owned by the soak driver and overwritten; record_egress is forced
  /// off (verification is fully sink-driven).
  SimOptions sim;

  /// Cycles between checkpoints; 0 disables checkpointing.
  std::uint64_t checkpoint_interval = 0;
  /// File the combined checkpoint is (re)written to. Required when
  /// checkpoint_interval != 0.
  std::string checkpoint_path;
  /// Resume from checkpoint_path instead of starting fresh.
  bool resume = false;

  /// Rolling equivalence verification against the single-pipeline
  /// reference.
  bool verify = true;
  /// RollingVerifier window cap (pending out-of-order fates).
  std::size_t verify_window = std::size_t{1} << 20;

  /// Abort (throw Error) if VmRSS exceeds this many KiB at a checkpoint
  /// boundary — the soak's flat-memory contract, enforced. 0 = unlimited.
  std::uint64_t rss_limit_kib = 0;
};

struct SoakReport {
  SimResult result;
  /// Meaningful only when SoakOptions::verify was set.
  EquivalenceReport equivalence;
  bool verify_ran = false;
  /// verify_ran && packets and registers matched the reference.
  bool verified = false;
  /// Verification stopped early at a state-touching fault drop.
  bool truncated = false;
  std::uint64_t verified_packets = 0;
  std::size_t verify_window_peak = 0;

  std::uint64_t checkpoints_written = 0;
  bool resumed = false;
  Cycle resumed_from_cycle = 0;

  /// VmRSS/VmHWM sampled at checkpoints and at completion (KiB; 0 when
  /// procfs is unavailable).
  std::uint64_t rss_kib = 0;
  std::uint64_t peak_rss_kib = 0;
};

SoakReport run_soak(const Mp5Program& program, const SoakOptions& options);

} // namespace mp5::soak
