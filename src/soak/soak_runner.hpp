// Crash-recoverable streaming driver behind mp5sim's MP5 designs.
//
// run_soak() wires the streaming pieces into one billion-packet-capable
// harness: a TraceSource feeds the simulator, a second source over the
// same stream feeds the RollingVerifier via the egress/fault-drop sinks,
// and every checkpoint_interval cycles the complete simulator + verifier
// state is written atomically to one file. A crashed (even SIGKILLed)
// soak resumes from that file and finishes with the same SimResult as an
// uninterrupted run. The baseline designs verify through the same
// wiring: RollingVerifier::attach, the run, finish_verification.
//
// Soak checkpoint file layout: two `mp5-checkpoint v1` frames back to
// back — the simulator frame first (so external tools can sniff the magic
// at offset 0), then the verifier frame carrying RollingVerifier state.
// Both land in a single atomic rename, so there is no crash window in
// which the two halves disagree. A run without verification writes the
// simulator frame alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "metrics/equivalence.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/options.hpp"
#include "mp5/transform.hpp"
#include "trace/trace_source.hpp"

namespace mp5::soak {

class RollingVerifier;

/// Opens the run's packet stream at its first packet. run_soak calls it
/// once for the simulator and once for the verifier; both calls must
/// yield the same packets.
using TrafficOpener = std::function<std::unique_ptr<TraceSource>()>;

struct SoakOptions {
  TrafficOpener traffic;

  /// Base simulator configuration. The checkpoint knobs
  /// (checkpoint_interval / checkpoint_sink) and, when verifying, the
  /// streaming sinks are owned by the soak driver and overwritten.
  SimOptions sim;

  /// Cycles between checkpoints; 0 disables checkpointing.
  std::uint64_t checkpoint_interval = 0;
  /// File the combined checkpoint is (re)written to. Required when
  /// checkpoint_interval != 0.
  std::string checkpoint_path;
  /// Checkpoint file to resume from instead of starting fresh; empty
  /// starts fresh. With verify on it must carry the verifier frame.
  std::string resume;

  /// Rolling equivalence verification against the single-pipeline
  /// reference.
  bool verify = true;
};

struct SoakReport {
  SimResult result;
  /// Meaningful only when verification ran.
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
};

SoakReport run_soak(const Mp5Program& program, const SoakOptions& options);

/// Close `verifier` with report.result, the run it was attached to, and
/// fill report's verification fields.
void finish_verification(RollingVerifier& verifier, SoakReport& report);

} // namespace mp5::soak
