#include "metrics/c1_checker.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace mp5 {

C1Checker::C1Checker(const std::vector<ir::RegisterSpec>& registers) {
  last_seq_.reserve(registers.size());
  for (const ir::RegisterSpec& spec : registers) {
    last_seq_.emplace_back(spec.size, kInvalidSeqNo);
  }
}

void C1Checker::on_access(RegId reg, RegIndex index, SeqNo seq) {
  ++accesses_;
  if (reg >= last_seq_.size() || index >= last_seq_[reg].size()) {
    throw Error("C1Checker: access outside declared register space");
  }
  SeqNo& last = last_seq_[reg][index];
  if (last == kInvalidSeqNo) {
    last = seq;
  } else if (seq < last) {
    // `seq` arrives at the state after a later-arriving packet: inversion.
    violators_.insert(seq);
  } else {
    last = seq;
  }
}

template <class Io> void C1Checker::transfer(Io& io) {
  bool dense = true; // the v1 payload's storage-mode byte: dense table
  io.boolean(dense);
  io.check(dense, "checkpoint: C1 checker storage-mode mismatch");
  io.size_equal(last_seq_.size(),
                "checkpoint: C1 dense table register count mismatch");
  for (auto& row : last_seq_) {
    io.size_equal(row.size(), "checkpoint: C1 dense table size mismatch");
    for (SeqNo& s : row) io.u64(s);
  }
  io.sorted(violators_, 8, [&](SeqNo& s) { io.u64(s); });
  io.u64(accesses_);
}

// The simulators list this class inside their own transfer().
template void C1Checker::transfer(SaveIo&);
template void C1Checker::transfer(LoadIo&);

} // namespace mp5
