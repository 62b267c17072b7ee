#include "metrics/c1_checker.hpp"

#include <algorithm>

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

void C1Checker::save(ByteWriter& w) const {
  w.boolean(true); // the v1 payload's storage-mode byte: dense table
  w.u64(last_seq_.size());
  for (const auto& row : last_seq_) {
    w.u64(row.size());
    for (const SeqNo s : row) w.u64(s);
  }
  std::vector<SeqNo> violators(violators_.begin(), violators_.end());
  std::sort(violators.begin(), violators.end());
  w.u64(violators.size());
  for (const SeqNo s : violators) w.u64(s);
  w.u64(accesses_);
}

void C1Checker::load(ByteReader& r) {
  if (!r.boolean()) {
    throw Error("checkpoint: C1 checker storage-mode mismatch");
  }
  if (r.count(8) != last_seq_.size()) {
    throw Error("checkpoint: C1 dense table register count mismatch");
  }
  for (auto& row : last_seq_) {
    if (r.count(8) != row.size()) {
      throw Error("checkpoint: C1 dense table size mismatch");
    }
    for (SeqNo& s : row) s = r.u64();
  }
  violators_.clear();
  const std::uint64_t nv = r.count(8);
  violators_.reserve(static_cast<std::size_t>(nv));
  for (std::uint64_t i = 0; i < nv; ++i) violators_.insert(r.u64());
  accesses_ = r.u64();
}

} // namespace mp5
