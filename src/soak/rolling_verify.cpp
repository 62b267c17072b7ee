#include "soak/rolling_verify.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace mp5::soak {

RollingVerifier::RollingVerifier(const ir::Pvsm& program,
                                 std::unique_ptr<TraceSource> reference_input,
                                 Options options)
    : program_(&program),
      ref_(program),
      input_(std::move(reference_input)),
      opts_(options),
      core_(program) {
  if (input_ == nullptr) {
    throw ConfigError("RollingVerifier: reference input source is null");
  }
  input_size_ = input_->size();
  // The C1 access log is O(packets); rolling verification never reads it.
  ref_.set_access_logging(false);
}

void RollingVerifier::on_egress(EgressRecord&& rec) {
  if (truncated_) return; // nothing downstream is comparable any more
  if (rec.seq < next_seq_) {
    // This seq was already resolved — a second egress of the same packet.
    core_.flag_duplicate(rec.seq, 2);
    return;
  }
  Pending fate;
  fate.resolved = true;
  fate.egressed = true;
  fate.headers = std::move(rec.headers);
  set_fate(rec.seq, std::move(fate));
  drain();
}

void RollingVerifier::on_fault_drop(SeqNo seq, bool state_touched) {
  if (truncated_) return;
  if (seq < next_seq_) {
    core_.flag_duplicate(seq, 2);
    return;
  }
  Pending fate;
  fate.resolved = true;
  fate.egressed = false;
  fate.state_touched = state_touched;
  set_fate(seq, std::move(fate));
  drain();
}

void RollingVerifier::feed(const PacketStreams& streams) {
  for (EgressRecord rec : streams.egress) on_egress(std::move(rec));
  for (const SimResult::FaultDrop& d : streams.drops) {
    on_fault_drop(d.seq, d.state_touched);
  }
}

void RollingVerifier::set_fate(SeqNo seq, Pending&& fate) {
  if (input_size_ && seq >= *input_size_) {
    // A packet the reference stream never held: report it now rather than
    // widen the window up to it.
    core_.flag_out_of_range(seq, *input_size_);
    return;
  }
  const std::uint64_t offset = seq - next_seq_;
  if (offset >= opts_.max_window) {
    throw Error("rolling verification window exceeded (" +
                std::to_string(opts_.max_window) +
                " pending fates): egress for seq " + std::to_string(seq) +
                " arrived while seq " + std::to_string(next_seq_) +
                " is still unresolved");
  }
  if (window_.size() <= offset) {
    window_.resize(static_cast<std::size_t>(offset) + 1);
    window_peak_ = std::max(window_peak_, window_.size());
  }
  Pending& slot = window_[static_cast<std::size_t>(offset)];
  if (slot.resolved) {
    core_.flag_duplicate(seq, 2);
    return;
  }
  slot = std::move(fate);
}

void RollingVerifier::drain() {
  while (!window_.empty() && window_.front().resolved && !truncated_) {
    resolve(next_seq_, window_.front());
    window_.pop_front();
    ++next_seq_;
  }
  if (truncated_) {
    // Free everything: no further comparison is possible, and a soak must
    // not accumulate the rest of the stream.
    window_.clear();
  }
}

void RollingVerifier::resolve(SeqNo seq, Pending& fate) {
  const TraceItem* item = input_->peek();
  if (item == nullptr) {
    // The simulator produced a record for a packet the trace never
    // contained — same malformed-stream class as the batch checker's
    // out-of-range diagnostic.
    core_.flag_out_of_range(seq, input_->consumed());
    return;
  }
  if (!fate.egressed) {
    if (fate.state_touched) {
      truncated_ = true;
      core_.note("rolling verification truncated at seq " +
                 std::to_string(seq) +
                 ": dropped packet left partial register effects the "
                 "reference cannot replay");
      return;
    }
    // Declared drop with no state effects: the reference skips the packet.
    input_->advance();
    return;
  }
  std::vector<Value> headers;
  load_headers(*item, *program_, headers);
  input_->advance();
  core_.compare_packet(seq, ref_.process(std::move(headers)), fate.headers);
  ++verified_;
}

EquivalenceReport RollingVerifier::finish(const SimResult& result) {
  EquivalenceReport& report = core_.report();
  if (!truncated_) {
    // Everything admitted but never resolved is a lost packet. Flag the
    // first few individually, then aggregate (a badly lossy run could have
    // millions of holes; the report must stay O(window), not O(trace)).
    constexpr std::uint64_t kDetailed = 8;
    const std::uint64_t outstanding =
        result.offered > next_seq_ ? result.offered - next_seq_ : 0;
    std::uint64_t resolved_pending = 0;
    for (std::size_t off = 0; off < window_.size(); ++off) {
      if (!window_[off].resolved) continue;
      if (off < outstanding) {
        ++resolved_pending;
      } else {
        // A fate for a packet the run never admitted (a reference of
        // unknown length lets it wait behind the holes before it).
        core_.flag_out_of_range(next_seq_ + off, result.offered);
      }
    }
    const std::uint64_t missing =
        outstanding > resolved_pending ? outstanding - resolved_pending : 0;
    std::uint64_t flagged = 0;
    for (std::size_t off = 0;
         flagged < std::min(missing, kDetailed) &&
         off < static_cast<std::size_t>(outstanding);
         ++off) {
      const bool resolved =
          off < window_.size() && window_[off].resolved;
      if (!resolved) {
        core_.flag_never_egressed(next_seq_ + off);
        ++flagged;
      }
    }
    if (missing > flagged) {
      report.packet_mismatches += missing - flagged;
      report.packets_equal = false;
    }
    if (missing == 0) {
      core_.compare_registers(ref_.registers(), result.final_registers);
    } else {
      core_.note("final register state not compared: " +
                 std::to_string(missing) + " packets unresolved");
    }
  }
  // A drop no fault plan declared breaks equivalence (§3.5.1) even where
  // the reference could skip the packet; it leads the report.
  const std::uint64_t undeclared =
      result.dropped_data + result.dropped_starved;
  if (undeclared != 0) {
    report.packets_equal = false;
    report.packet_mismatches += undeclared;
    std::string note = std::to_string(undeclared) +
                       " packets dropped outside the fault plan (" +
                       std::to_string(result.dropped_data) + " data, " +
                       std::to_string(result.dropped_starved) + " starved)";
    if (!report.first_difference.empty()) {
      note += "; " + report.first_difference;
    }
    report.first_difference = std::move(note);
  }
  return report;
}

template <class Io> void RollingVerifier::transfer(Io& io) {
  io.check(next_seq_ == 0 && verified_ == 0 && window_.empty(),
           "RollingVerifier::load requires a freshly constructed verifier");
  io.u64(next_seq_);
  io.u64(verified_);
  io.boolean(truncated_);
  io.u64(window_peak_);
  io.seq(window_, 11, [&](Pending& p) {
    io.boolean(p.resolved);
    io.boolean(p.egressed);
    io.boolean(p.state_touched);
    io.values(p.headers);
  });
  EquivalenceReport& rep = core_.report();
  io.boolean(rep.registers_equal);
  io.boolean(rep.packets_equal);
  io.u64(rep.register_mismatches);
  io.u64(rep.packet_mismatches);
  io.str(rep.first_difference);
  std::vector<std::vector<Value>> regs;
  if constexpr (!Io::kLoad) regs = ref_.registers();
  io.seq(regs, 8, [&](std::vector<Value>& reg) { io.values(reg); });
  if constexpr (Io::kLoad) {
    ref_.restore_registers(std::move(regs));
    // Every resolved seq consumed exactly one reference item (egressed and
    // skipped-drop fates alike), so the input resumes at the resolution
    // seq.
    input_->skip_to(next_seq_);
    io.check(input_->consumed() == next_seq_,
             "RollingVerifier::load: reference input too short for the "
             "saved verification position");
  }
}

EquivalenceReport verify_streams(const Mp5Program& prog, const Trace& trace,
                                 const StreamedRun& run) {
  RollingVerifier verifier(prog.pvsm,
                           std::make_unique<VectorTraceSource>(trace));
  verifier.feed(run.streams);
  return verifier.finish(run.result);
}

void RollingVerifier::save(ByteWriter& w) const { save_fields(w, *this); }

void RollingVerifier::load(ByteReader& r) { load_fields(r, *this); }

} // namespace mp5::soak
