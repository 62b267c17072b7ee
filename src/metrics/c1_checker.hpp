// Checker for condition C1 (§3): "for each register state, the same set of
// input packets must access the state and in the same order in both the
// single and multi-pipelined switch".
//
// In a single-pipelined switch the access order at every state is the
// packet arrival order, so C1 reduces to: at every (reg, index), observed
// access sequence numbers must be non-decreasing... strictly increasing.
// A packet "violates C1" when it accesses some state after a packet that
// arrived later than it already accessed that state (i.e. it participates
// in an inversion as the late side). The §4.3.2 D4 experiment reports the
// fraction of packets with at least one such violation.
//
// Storage: one flat last-seq vector per register, sized to the register's
// declared length, so a state access is an index, not a hash probe.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "banzai/ir.hpp"
#include "common/types.hpp"

namespace mp5 {

class C1Checker {
public:
  /// `registers` declares the register space (one table row per register
  /// array, of its declared size); accesses outside it throw.
  explicit C1Checker(const std::vector<ir::RegisterSpec>& registers);

  /// Record that packet `seq` performed an access at (reg, index).
  void on_access(RegId reg, RegIndex index, SeqNo seq);

  /// The checkpoint field listing (common/serialize.hpp); the violator set
  /// is written sorted for a byte-stable payload, and a load requires the
  /// register shapes of the save.
  template <class Io> void transfer(Io& io);

  std::uint64_t violating_packets() const { return violators_.size(); }

private:
  std::vector<std::vector<SeqNo>> last_seq_; // [reg][index] -> max seq
  std::unordered_set<SeqNo> violators_;
  std::uint64_t accesses_ = 0;
};

/// Feeds one packet's state accesses to a C1Checker, collapsing the
/// packet's read-modify-write of a state into a single logical access: C1
/// reasons about packets touching a state, not about port operations.
struct C1Observer final : ir::AccessObserver {
  C1Observer(C1Checker& checker, SeqNo seq) : checker(&checker), seq(seq) {}

  void on_state_access(RegId reg, RegIndex index, bool /*is_write*/) override {
    if (seen && reg == last_reg && index == last_index) return;
    checker->on_access(reg, index, seq);
    last_reg = reg;
    last_index = index;
    seen = true;
  }

  C1Checker* checker;
  SeqNo seq;
  RegId last_reg = ir::kNoReg;
  RegIndex last_index = 0;
  bool seen = false;
};

} // namespace mp5
