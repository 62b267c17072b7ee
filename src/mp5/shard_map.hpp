// Dynamically sharded shared register state (design principle D2, §3.4).
//
// The compiler allocates a full copy of every register array in the same
// stage of each pipeline, but at runtime each index is "active" in exactly
// one pipeline; the index-to-pipeline map tracks where. MP5 maintains a
// per-index packet-access counter (incremented at address resolution) and
// an in-flight counter (incremented at resolution, decremented once the
// packet has performed the access), and periodically rebalances with the
// Figure 6 heuristic. An index is only moved when its in-flight counter is
// zero, so steering tags in flight never go stale.
//
// Because accesses are only ever performed at an index's active pipeline,
// the simulator stores a single flat value per index (an ir::FlatRegFile);
// the per-pipeline replicas of the paper differ only physically, not
// observably.
//
// Accounting is *incremental* (see DESIGN.md "Incremental D2 accounting"):
// every periodic operation costs time proportional to the indices touched
// in the current remap window, never to the table size:
//   * windowed access counters are epoch-stamped — "resetting" them is one
//     epoch bump per register instead of a std::fill over the array;
//   * per-lane aggregate load and membership are maintained at access /
//     move time, so pipeline_load() and the fail_pipeline() load seed are
//     O(k) instead of O(indices);
//   * a per-window touched-index list feeds the Figure 6 candidate search
//     and the LPT baseline, preserving the naive scan's tie-breaks bit for
//     bit (ascending index, strict-greater best); when no touched index
//     qualifies, the cold fallback scans indices ascending and stops at
//     the first untouched, idle one on the hot lane;
//   * fail_pipeline() walks the dead lane's membership list instead of the
//     whole map.
// The pre-optimization full-scan implementation is kept compiled in as
// rebalance_reference(); a property suite asserts the two produce
// identical shard maps and move counts for every seed/policy/fault plan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "banzai/ir.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace mp5 {

enum class ShardingPolicy {
  /// Figure 6 heuristic every remap period (the MP5 default).
  kDynamic,
  /// Random compile-time sharding, never updated (the no-D2 baseline of
  /// §4.3.2).
  kStaticRandom,
  /// Everything in pipeline 0 (the naive shared-memory design of D1).
  kSinglePipeline,
  /// Near-optimal rebalancing: full greedy LPT re-shard each period
  /// (the "optimal bin packing" side of the ideal baseline, §4.3.3).
  kIdealLpt,
};

/// The policies' one set of names: "dynamic", "static-random",
/// "single-pipeline", "ideal-lpt" (the fuzz corpus, mp5native --policy and
/// the mp5-native-results "policy" fields all use them).
const char* to_string(ShardingPolicy policy);
/// Inverse of to_string; throws ConfigError naming the valid policies.
ShardingPolicy sharding_from_string(const std::string& name);

class ShardedState {
public:
  ShardedState(const std::vector<ir::RegisterSpec>& specs,
               const std::vector<bool>& shardable, std::uint32_t pipelines,
               ShardingPolicy policy, Rng rng);

  /// The register values (flat storage; see header comment).
  ir::FlatRegFile& regs() { return values_; }
  const ir::FlatRegFile& regs() const { return values_; }

  /// Active pipeline of (reg, index). Pinned arrays always map to the pin
  /// pipeline regardless of index (callers may pass kUnresolvedIndex).
  PipelineId pipeline_of(RegId reg, RegIndex index) const;

  bool shardable(RegId reg) const { return shardable_[reg]; }
  PipelineId pin_pipeline() const { return pin_; }

  // -- lane liveness (fault injection / graceful degradation) --

  /// Quarantine a failed lane: every index active there is atomically
  /// re-homed to the least-loaded surviving lane, and the pin pipeline
  /// moves if it was the casualty. The caller must have drained the
  /// lane's in-flight packets first — the §3.4 in-flight guard still
  /// applies, and an index with packets in flight throws Error (moving it
  /// would strand live steering tags). Returns the number of indices
  /// re-homed. Dead lanes are skipped by every subsequent placement
  /// decision (pipeline_of results, rebalancing targets). Costs
  /// O(indices on the dead lane), not O(table size): the evacuation set
  /// comes from the per-lane membership list and the survivor load seed
  /// from the incremental per-lane aggregates.
  std::size_t fail_pipeline(PipelineId pipeline);

  /// Bring a recovered lane back into the placement pool. It rejoins
  /// empty; periodic rebalancing migrates state back onto it.
  void recover_pipeline(PipelineId pipeline);

  bool alive(PipelineId pipeline) const { return alive_[pipeline]; }
  std::uint32_t alive_count() const;

  /// Address-resolution bookkeeping (§3.4).
  void note_resolved(RegId reg, RegIndex index); // access ctr +1, in-flight +1
  void note_completed(RegId reg, RegIndex index); // in-flight -1

  /// Run the periodic rebalance for every shardable register array.
  /// Returns the number of indexes moved. O(touched indices + k·regs) per
  /// call — a window that touched nothing costs O(k·regs) regardless of
  /// table size.
  std::size_t rebalance();

  /// The pre-incremental full-scan rebalance: identical decisions (and
  /// therefore identical maps, move counts and downstream SimResults),
  /// O(table size) per call. Kept compiled in as the oracle for the
  /// equivalence property suite and the bench_ablation_remap before/after
  /// comparison.
  std::size_t rebalance_reference();

  /// Aggregate per-pipeline access-counter load for one register array
  /// under the current mapping (exposed for tests and benches). O(k):
  /// returns the incrementally maintained per-lane aggregates.
  std::vector<std::uint64_t> pipeline_load(RegId reg) const;

  /// True when some access since the last window reset touched a register
  /// whose counters the next rebalance would reset — i.e. the next remap
  /// boundary is observable. When false, a rebalance under any policy is
  /// a provable no-op (zero windowed loads => zero moves, nothing to
  /// reset) and the simulator's idle-cycle skip may jump the boundary.
  bool window_dirty() const { return window_dirty_; }

  /// Number of distinct indices of `reg` accessed in the current window
  /// (the size of the touched list the next rebalance will scan).
  std::size_t window_touched(RegId reg) const {
    return regs_[reg].touched.size();
  }

  std::uint64_t total_moves() const { return total_moves_; }

  /// Work counts since construction (telemetry exports them as
  /// "shard.state_accesses", "shard.touched_indices" and
  /// "shard.rebalance_runs"). They are not part of transfer(): the simulator
  /// carries them in its checkpoint's named-counter block, and counts the
  /// provably idle windows its clock jumps over into rebalance_runs.
  struct Counts {
    std::uint64_t state_accesses = 0;  // resolved-index note_resolved calls
    std::uint64_t touched_indices = 0; // windowed working sets, summed
    std::uint64_t rebalance_runs = 0;  // closed remap windows
  };
  const Counts& counts() const { return counts_; }
  Counts& counts() { return counts_; }

  // -- checkpoint/restore --

  /// The checkpoint field listing (common/serialize.hpp): register values,
  /// the full index-to-pipeline map, windowed access/in-flight counters
  /// with their epoch stamps, membership lists and per-lane aggregates —
  /// everything the rebalance heuristic and steering decisions read. A
  /// load goes into a same-shaped ShardedState (same specs / k / policy),
  /// overwrites the constructor's initial placement, and throws Error on
  /// a shape mismatch.
  template <class Io> void transfer(Io& io);

private:
  struct PerReg {
    std::vector<PipelineId> map;          // index -> active pipeline
    // Windowed access counters, epoch-stamped: access[i] is valid only
    // when stamp[i] == epoch, otherwise the index's windowed count is 0.
    // A window reset is an epoch bump, not a fill.
    std::vector<std::uint32_t> access;
    std::vector<std::uint32_t> stamp;
    std::vector<std::uint32_t> in_flight;
    /// Distinct indices accessed this window, in first-touch order (the
    /// candidate scans re-establish the naive ascending-index tie-break
    /// with explicit comparators).
    std::vector<RegIndex> touched;
    /// Per-lane membership: members[p] lists the indices mapped to lane p
    /// (swap-remove order; pos[i] is index i's slot in its lane's list).
    /// fail_pipeline() evacuates from it and checkpoints carry it.
    std::vector<std::vector<RegIndex>> members;
    std::vector<std::uint32_t> pos;
    /// Per-lane windowed aggregate of access counters, maintained at
    /// note_resolved / move time: pipeline_load() in O(k).
    std::vector<std::uint64_t> lane_load;
    std::uint32_t epoch = 1; // stamps start at 0 == untouched
  };

  /// Windowed access count of an index (0 unless touched this window).
  static std::uint32_t eff_access(const PerReg& per, RegIndex i) {
    return per.stamp[i] == per.epoch ? per.access[i] : 0;
  }
  /// Re-home one index, keeping map / membership / pos coherent.
  void move_index(PerReg& per, RegIndex i, PipelineId to);
  /// Close the register's remap window: clear the touched list, zero the
  /// per-lane aggregates, and invalidate every stamp via an epoch bump.
  void end_window(PerReg& per);
  /// Counts + dirty-flag epilogue shared by both rebalance paths.
  void finish_rebalance(std::size_t moves, std::uint64_t touched);

  std::size_t rebalance_one(RegId reg);      // Figure 6, O(touched), + O(chosen index) on cold fallback
  std::size_t rebalance_lpt(RegId reg);      // ideal LPT re-shard, O(touched log touched)
  std::size_t rebalance_one_reference(RegId reg); // Figure 6, full scan
  std::size_t rebalance_lpt_reference(RegId reg); // LPT, full scan

  std::uint32_t k_;
  ShardingPolicy policy_;
  PipelineId pin_ = 0;
  std::vector<bool> alive_;
  std::vector<bool> shardable_;
  /// resets_[r]: the periodic rebalance resets this register's window
  /// (all registers under static policies, shardable ones under the
  /// moving policies) — the condition for a touch to dirty the window.
  std::vector<bool> resets_;
  std::vector<PerReg> regs_;
  std::uint64_t total_moves_ = 0;
  Counts counts_;
  bool window_dirty_ = false;
  std::vector<RegIndex> scratch_; // evacuation / movable-candidate reuse

  /// On its own cache line: the native backend's workers read this header
  /// on every atom while its dispatcher writes the counters above.
  alignas(64) ir::FlatRegFile values_;
};

} // namespace mp5
