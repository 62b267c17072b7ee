#include "metrics/equivalence.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace mp5 {

void EquivalenceVerifier::note(const std::string& msg) {
  if (report_.first_difference.empty()) report_.first_difference = msg;
}

void EquivalenceVerifier::compare_packet(
    SeqNo seq, const std::vector<Value>& reference_headers,
    const std::vector<Value>& got_headers) {
  bool mismatch = false;
  for (const auto& [name, slot] : program_->declared_slot) {
    const auto s = static_cast<std::size_t>(slot);
    const Value want =
        s < reference_headers.size() ? reference_headers[s] : 0;
    const Value got = s < got_headers.size() ? got_headers[s] : 0;
    if (want != got) {
      mismatch = true;
      std::ostringstream os;
      os << "packet " << seq << " field '" << name << "': reference " << want
         << ", got " << got;
      note(os.str());
    }
  }
  if (mismatch) {
    report_.packets_equal = false;
    ++report_.packet_mismatches;
  }
}

void EquivalenceVerifier::flag_duplicate(SeqNo seq, std::uint64_t times) {
  report_.packets_equal = false;
  ++report_.packet_mismatches;
  note("packet " + std::to_string(seq) + " egressed " +
       std::to_string(times) + " times");
}

void EquivalenceVerifier::flag_out_of_range(SeqNo seq,
                                            std::uint64_t reference_count) {
  report_.packets_equal = false;
  ++report_.packet_mismatches;
  note("egress record with out-of-range seq " + std::to_string(seq) +
       " (reference has " + std::to_string(reference_count) + " packets)");
}

void EquivalenceVerifier::flag_never_egressed(SeqNo seq) {
  report_.packets_equal = false;
  ++report_.packet_mismatches;
  note("packet " + std::to_string(seq) + " never egressed");
}

void EquivalenceVerifier::flag_count_mismatch(std::uint64_t reference_count,
                                              std::uint64_t got_count) {
  report_.packets_equal = false;
  note("egress count: reference " + std::to_string(reference_count) +
       " packets, got " + std::to_string(got_count));
}

void EquivalenceVerifier::compare_registers(
    const std::vector<std::vector<Value>>& reference,
    const std::vector<std::vector<Value>>& got) {
  for (std::size_t r = 0; r < reference.size(); ++r) {
    if (r >= got.size()) {
      report_.registers_equal = false;
      ++report_.register_mismatches;
      note("register array '" + program_->registers[r].name + "' missing");
      continue;
    }
    const auto& want = reference[r];
    const auto& have = got[r];
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (i >= have.size() || want[i] != have[i]) {
        report_.registers_equal = false;
        ++report_.register_mismatches;
        std::ostringstream os;
        os << "register " << program_->registers[r].name << "[" << i
           << "]: reference " << want[i] << ", got "
           << (i < have.size() ? std::to_string(have[i]) : "<missing>");
        note(os.str());
      }
    }
  }
}

EquivalenceReport check_equivalence(
    const ir::Pvsm& program, const banzai::ReferenceResult& reference,
    const std::vector<std::vector<Value>>& final_registers,
    const std::vector<std::vector<Value>>& egress_by_seq) {
  EquivalenceVerifier verifier(program);
  verifier.compare_registers(reference.final_registers, final_registers);
  const auto& want = reference.egress_headers;
  if (egress_by_seq.size() != want.size()) {
    verifier.flag_count_mismatch(want.size(), egress_by_seq.size());
  }
  // A record shorter than the declared prefix was never written (a lost
  // packet leaves a hole in a seq-indexed record); it must not read as 0s.
  const std::size_t declared = program.declared_slot.size();
  for (SeqNo seq = 0; seq < std::min(want.size(), egress_by_seq.size());
       ++seq) {
    if (egress_by_seq[seq].size() < declared) {
      verifier.flag_never_egressed(seq);
      continue;
    }
    verifier.compare_packet(seq, want[seq], egress_by_seq[seq]);
  }
  return verifier.report();
}

std::function<void(EgressRecord&&)> egress_by_seq_sink(
    std::vector<std::vector<Value>>& rows) {
  return [&rows](EgressRecord&& rec) {
    if (rows.size() <= rec.seq) rows.resize(rec.seq + 1);
    rows[rec.seq] = std::move(rec.headers);
  };
}

} // namespace mp5
