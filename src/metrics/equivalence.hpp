// Functional-equivalence checking (§2.2.1).
//
// A multi-pipelined switch is functionally equivalent to the logical
// single-pipelined switch when, from the same initial state and input
// stream (and with no packet loss):
//   * register state: every register array ends with identical values;
//   * packet state: every packet leaves with identical header contents.
// Only declared packet fields are compared — compiler temporaries are
// scratch metadata, not packet state.
//
// Two checkers share the comparison core below: the batch check_equivalence
// (a whole run vs a whole ReferenceResult) and the rolling verifier in
// src/soak/ (per-egress incremental compare over a bounded window). The
// reference side may also be the AstInterp oracle (domino::replay).
#pragma once

#include <string>
#include <vector>

#include "banzai/ir.hpp"
#include "banzai/single_pipeline.hpp"
#include "common/serialize.hpp"
#include "metrics/sim_result.hpp"

namespace mp5 {

struct EquivalenceReport {
  bool registers_equal = true;
  bool packets_equal = true;
  std::uint64_t register_mismatches = 0;
  std::uint64_t packet_mismatches = 0;
  std::string first_difference; // human-readable, empty when equivalent

  bool equivalent() const { return registers_equal && packets_equal; }
};

/// Shared comparison core: per-packet declared-field compares, register
/// compares, and the malformed-egress-stream diagnostics (duplicate seqs,
/// out-of-range seqs, never-egressed packets). Accumulates an
/// EquivalenceReport; callers own the iteration strategy (batch vs rolling).
class EquivalenceVerifier {
public:
  explicit EquivalenceVerifier(const ir::Pvsm& program)
      : program_(&program) {}

  /// Compare one egressed packet's declared fields against the reference's
  /// final headers for the same seq (missing trailing slots read 0).
  void compare_packet(SeqNo seq, const std::vector<Value>& reference_headers,
                      const std::vector<Value>& got_headers);

  /// A lossless run must produce exactly one egress record per reference
  /// packet; these flag the three malformed-stream shapes. (Earlier
  /// versions silently let the last duplicate win and dropped out-of-range
  /// records, hiding double-egress bugs.)
  void flag_duplicate(SeqNo seq, std::uint64_t times);
  void flag_out_of_range(SeqNo seq, std::uint64_t reference_count);
  void flag_never_egressed(SeqNo seq);
  void flag_count_mismatch(std::uint64_t reference_count,
                           std::uint64_t got_count);

  /// Compare declared register arrays (the simulated set may carry extra
  /// hidden arrays, e.g. the flow-order dummy register).
  void compare_registers(const std::vector<std::vector<Value>>& reference,
                         const std::vector<std::vector<Value>>& got);

  /// Record a free-form first difference (used by the rolling verifier for
  /// window/truncation diagnostics).
  void note(const std::string& msg);

  EquivalenceReport& report() { return report_; }
  const EquivalenceReport& report() const { return report_; }

private:
  const ir::Pvsm* program_;
  EquivalenceReport report_;
};

/// Compare a simulator run against the single-pipeline reference run of the
/// same program over the same packet stream. `result.egress` must be
/// recorded and the run must be lossless (drops legitimately break
/// equivalence, §3.5.1 — callers should check result.drop_fraction() first).
EquivalenceReport check_equivalence(const ir::Pvsm& program,
                                    const banzai::ReferenceResult& reference,
                                    const SimResult& result);

/// Compare a lossless run given as final registers plus egress headers
/// indexed by seq (the native backend's record, or another reference run)
/// against `reference`. A record shorter than the declared fields is a
/// packet that never egressed.
EquivalenceReport check_equivalence(
    const ir::Pvsm& program, const banzai::ReferenceResult& reference,
    const std::vector<std::vector<Value>>& final_registers,
    const std::vector<std::vector<Value>>& egress_by_seq);

/// Digest of the state equivalence is about, folded into `d` after any
/// words it already holds: the register arrays, then the egress row count
/// and each row's declared slots (missing trailing slots read 0). With
/// `egress` in seq order, equivalent runs of one input digest alike,
/// whatever executed them.
std::uint64_t final_state_digest(
    const ir::Pvsm& program,
    const std::vector<std::vector<Value>>& final_registers,
    const std::vector<std::vector<Value>>& egress, Fnv1aDigest d = {});

} // namespace mp5
