#include "metrics/c1_checker.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace mp5 {

void C1Checker::init_dense(const std::vector<std::size_t>& reg_sizes) {
  dense_ = true;
  last_seq_dense_.clear();
  last_seq_dense_.reserve(reg_sizes.size());
  for (const std::size_t size : reg_sizes) {
    last_seq_dense_.emplace_back(size, kInvalidSeqNo);
  }
}

void C1Checker::on_access(RegId reg, RegIndex index, SeqNo seq) {
  ++accesses_;
  if (dense_) {
    if (reg >= last_seq_dense_.size() ||
        index >= last_seq_dense_[reg].size()) {
      throw Error("C1Checker: access outside declared register space");
    }
    SeqNo& last = last_seq_dense_[reg][index];
    if (last == kInvalidSeqNo) {
      last = seq;
    } else if (seq < last) {
      // `seq` arrives at the state after a later-arriving packet: inversion.
      violators_.insert(seq);
    } else {
      last = seq;
    }
    return;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(reg) << 32) | index;
  auto [it, inserted] = last_seq_.try_emplace(key, seq);
  if (inserted) return;
  if (seq < it->second) {
    violators_.insert(seq);
  } else {
    it->second = seq;
  }
}

void C1Checker::save(ByteWriter& w) const {
  w.boolean(dense_);
  if (dense_) {
    w.u64(last_seq_dense_.size());
    for (const auto& row : last_seq_dense_) {
      w.u64(row.size());
      for (const SeqNo s : row) w.u64(s);
    }
  } else {
    std::vector<std::pair<std::uint64_t, SeqNo>> entries(last_seq_.begin(),
                                                         last_seq_.end());
    std::sort(entries.begin(), entries.end());
    w.u64(entries.size());
    for (const auto& [key, seq] : entries) {
      w.u64(key);
      w.u64(seq);
    }
  }
  std::vector<SeqNo> violators(violators_.begin(), violators_.end());
  std::sort(violators.begin(), violators.end());
  w.u64(violators.size());
  for (const SeqNo s : violators) w.u64(s);
  w.u64(accesses_);
}

void C1Checker::load(ByteReader& r) {
  if (r.boolean() != dense_) {
    throw Error("checkpoint: C1 checker storage-mode mismatch");
  }
  if (dense_) {
    if (r.count(8) != last_seq_dense_.size()) {
      throw Error("checkpoint: C1 dense table register count mismatch");
    }
    for (auto& row : last_seq_dense_) {
      if (r.count(8) != row.size()) {
        throw Error("checkpoint: C1 dense table size mismatch");
      }
      for (SeqNo& s : row) s = r.u64();
    }
  } else {
    last_seq_.clear();
    const std::uint64_t n = r.count(16);
    last_seq_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t key = r.u64();
      last_seq_[key] = r.u64();
    }
  }
  violators_.clear();
  const std::uint64_t nv = r.count(8);
  violators_.reserve(static_cast<std::size_t>(nv));
  for (std::uint64_t i = 0; i < nv; ++i) violators_.insert(r.u64());
  accesses_ = r.u64();
}

} // namespace mp5
