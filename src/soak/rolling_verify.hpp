// Rolling egress verification: the one checker of a simulator's egress
// stream (MP5, SCR/relaxed and recirculation alike).
//
// Egress records and drops stream in through the executor's egress_sink
// and fault_drop_sink (attach() wires both), fates are resolved in seq
// order against the single-pipeline reference, and verified history is
// discarded immediately. Memory is bounded by the egress reordering span
// (the window), not the trace length, so a billion-packet run verifies in
// flat RSS.
//
// Fate resolution, per seq:
//   * egressed            -> run the reference on the packet, compare the
//                            declared fields (shared EquivalenceVerifier
//                            core);
//   * dropped, state untouched -> the packet left no effects anywhere;
//                            the reference skips it and stays in sync;
//   * dropped, state touched   -> the packet's partial register effects
//                            cannot be replayed on the reference:
//                            verification is truncated at that seq (the
//                            report says so) — everything before it stays
//                            verified.
// Only injected faults may drop a packet: finish() reads the result's
// data and starvation drops and marks any of them a violation.
//
// The verifier is checkpointable alongside the simulator (save/load), so a
// crash-recovered soak resumes verification exactly where it stopped.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "banzai/single_pipeline.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
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

  void on_egress(EgressRecord&& rec);
  void on_fault_drop(SeqNo seq, bool state_touched);

  /// Point `opts`' egress sink, and its drop sink where the options have
  /// one (SimOptions, RecircOptions, ReplicatedOptions), at this verifier,
  /// which must outlive the run.
  template <class Options> void attach(Options& opts) {
    opts.egress_sink = [this](EgressRecord&& rec) {
      on_egress(std::move(rec));
    };
    if constexpr (requires { opts.fault_drop_sink; }) {
      opts.fault_drop_sink = [this](SeqNo seq, bool touched) {
        on_fault_drop(seq, touched);
      };
    }
  }

  /// Feed streams collected from a run (egress records, then drops).
  void feed(const PacketStreams& streams);

  /// Close the stream with the run's result: (unless truncated) every
  /// admitted-but-unresolved seq is flagged as never egressed, every fate
  /// for a seq the run never admitted as out of range, and the final
  /// register state is compared; any data or starvation drop is a
  /// violation whether or not verification was truncated. A fate past the
  /// end of a reference of known length is flagged when it arrives.
  EquivalenceReport finish(const SimResult& result);

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
  std::optional<std::uint64_t> input_size_; // reference length, if known
  Options opts_;
  EquivalenceVerifier core_;

  SeqNo next_seq_ = 0;          // next seq to resolve, in order
  std::deque<Pending> window_;  // window_[i] is seq next_seq_ + i
  std::uint64_t verified_ = 0;
  bool truncated_ = false;
  std::size_t window_peak_ = 0;
};

/// A run's result and the packets its sinks emitted.
struct StreamedRun {
  SimResult result;
  PacketStreams streams;
};

/// Run `Sim` (Mp5Simulator, ReplicatedSimulator, RecircSimulator) on
/// `opts` over `trace`, collecting its per-packet streams.
template <class Sim = Mp5Simulator, class Options>
StreamedRun run_streamed(const Mp5Program& prog, const Trace& trace,
                         Options opts) {
  StreamedRun run;
  run.streams.attach(opts);
  run.result = Sim(prog, opts).run(trace);
  return run;
}

/// Feed a run's streams (as collected, or doctored by a test) through a
/// RollingVerifier against the reference over `trace`.
EquivalenceReport verify_streams(const Mp5Program& prog, const Trace& trace,
                                 const StreamedRun& run);

} // namespace mp5::soak
