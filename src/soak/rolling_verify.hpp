// Rolling egress verification for billion-packet soaks.
//
// The batch checker (metrics/equivalence.hpp) needs the whole egress log in
// memory — O(packets) RSS, a non-starter at 10^9 packets. RollingVerifier
// performs the same declared-field comparison incrementally: egress records
// and declared fault drops stream in (via the simulator's egress_sink /
// fault_drop_sink), fates are resolved in seq order against the
// single-pipeline reference, and verified history is discarded immediately.
// Memory is bounded by the egress reordering span (the window), not the
// trace length.
//
// Fate resolution, per seq:
//   * egressed            -> run the reference on the packet, compare the
//                            declared fields (shared EquivalenceVerifier
//                            core: same duplicate/out-of-range diagnostics
//                            as the batch checker);
//   * fault drop, state untouched -> the packet left no effects anywhere;
//                            the reference skips it and stays in sync;
//   * fault drop, state touched   -> the packet's partial register effects
//                            cannot be replayed on the reference:
//                            verification is truncated at that seq (the
//                            report says so) — everything before it stays
//                            verified.
//
// The verifier is checkpointable alongside the simulator (save/load), so a
// crash-recovered soak resumes verification exactly where it stopped.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "banzai/single_pipeline.hpp"
#include "metrics/equivalence.hpp"
#include "trace/trace_source.hpp"

namespace mp5 {
class ByteReader;
class ByteWriter;
} // namespace mp5

namespace mp5::soak {

struct RollingVerifyOptions {
  /// Hard cap on pending (unresolved) fates. The window only grows while
  /// egress order runs ahead of seq order, so hitting this means the run
  /// is pathologically reordered or leaking fates; throwing beats
  /// unbounded RSS in a soak.
  std::size_t max_window = std::size_t{1} << 20;
};

class RollingVerifier {
public:
  using Options = RollingVerifyOptions;

  /// `reference_input` must yield the same packet stream the simulator
  /// consumes (a second TraceSource over the same trace).
  RollingVerifier(const ir::Pvsm& program,
                  std::unique_ptr<TraceSource> reference_input,
                  Options options = {});

  /// Wire these to SimOptions::egress_sink / fault_drop_sink.
  void on_egress(EgressRecord&& rec);
  void on_fault_drop(SeqNo seq, bool state_touched);

  /// Close the stream: every admitted-but-unresolved seq is flagged as
  /// never egressed, and (unless truncated) the final register state is
  /// compared. `admitted` is the simulator's SimResult::offered.
  EquivalenceReport finish(
      std::uint64_t admitted,
      const std::vector<std::vector<Value>>& final_registers);

  /// Packets fully verified so far (resolved, compared, discarded).
  std::uint64_t verified() const { return verified_; }
  /// True once a state-touching fault drop ended comparable verification.
  bool truncated() const { return truncated_; }
  /// High-water mark of the pending window (flat-RSS diagnostics).
  std::size_t window_peak() const { return window_peak_; }
  const EquivalenceReport& report() const { return core_.report(); }

  /// Checkpoint support: serialize resolution position, pending window,
  /// accumulated report, and the reference switch's register state. load()
  /// requires a freshly constructed verifier over the same program and
  /// reference input; it repositions the input to the saved seq.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);
  /// The one field listing behind save() and load() (common/serialize.hpp).
  template <class Io> void transfer(Io& io);

private:
  struct Pending {
    bool resolved = false;      // fate known?
    bool egressed = false;      // else: declared fault drop
    bool state_touched = false; // fault drops only
    std::vector<Value> headers; // egressed only: observed final headers
  };

  void set_fate(SeqNo seq, Pending&& fate);
  void drain();
  void resolve(SeqNo seq, Pending& fate);

  const ir::Pvsm* program_;
  banzai::ReferenceSwitch ref_;
  std::unique_ptr<TraceSource> input_;
  Options opts_;
  EquivalenceVerifier core_;

  SeqNo next_seq_ = 0;          // next seq to resolve, in order
  std::deque<Pending> window_;  // window_[i] is seq next_seq_ + i
  std::uint64_t verified_ = 0;
  bool truncated_ = false;
  std::size_t window_peak_ = 0;
};

} // namespace mp5::soak
