#include "banzai/single_pipeline.hpp"

#include <stdexcept>

namespace mp5::banzai {

void AccessLog::record(RegId reg, RegIndex index, SeqNo seq) {
  auto& vec = order[key(reg, index)];
  // A read-modify-write by one packet is a single logical access.
  if (!vec.empty() && vec.back() == seq) return;
  vec.push_back(seq);
}

void ReferenceSwitch::Observer::on_state_access(RegId reg, RegIndex index,
                                                bool /*is_write*/) {
  if (seen && reg == last_reg && index == last_index) return;
  log->record(reg, index, current_seq);
  last_reg = reg;
  last_index = index;
  seen = true;
}

ReferenceSwitch::ReferenceSwitch(const ir::Pvsm& program)
    : program_(&program), regs_(program.initial_registers()) {}

std::vector<Value> ReferenceSwitch::process(std::vector<Value> headers) {
  headers.resize(program_->num_slots(), 0);
  Observer obs;
  obs.log = &log_;
  obs.current_seq = next_seq_++;
  obs.seen = false;
  ir::AccessObserver* observer = log_accesses_ ? &obs : nullptr;
  for (const auto& stage : program_->stages) {
    ir::exec_stage(stage, headers, regs_, program_->registers, observer);
  }
  return headers;
}

void ReferenceSwitch::restore_registers(std::vector<std::vector<Value>> regs) {
  const auto& shape = regs_.storage();
  if (regs.size() != shape.size()) {
    throw std::invalid_argument(
        "ReferenceSwitch::restore_registers: register count mismatch");
  }
  for (std::size_t r = 0; r < regs.size(); ++r) {
    if (regs[r].size() != shape[r].size()) {
      throw std::invalid_argument(
          "ReferenceSwitch::restore_registers: register size mismatch");
    }
  }
  regs_.storage() = std::move(regs);
}

ReferenceResult ReferenceSwitch::run(
    const std::vector<std::vector<Value>>& packets) {
  ReferenceResult result;
  result.egress_headers.reserve(packets.size());
  for (const auto& pkt : packets) {
    result.egress_headers.push_back(process(pkt));
  }
  result.final_registers = regs_.storage();
  result.accesses = log_;
  return result;
}

} // namespace mp5::banzai
