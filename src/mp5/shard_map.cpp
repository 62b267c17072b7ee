#include "mp5/shard_map.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "packet/packet.hpp"

namespace mp5 {

const char* to_string(ShardingPolicy policy) {
  switch (policy) {
    case ShardingPolicy::kDynamic: return "dynamic";
    case ShardingPolicy::kStaticRandom: return "static-random";
    case ShardingPolicy::kSinglePipeline: return "single-pipeline";
    case ShardingPolicy::kIdealLpt: return "ideal-lpt";
  }
  throw Error("to_string: bad sharding policy");
}

ShardingPolicy sharding_from_string(const std::string& name) {
  for (const ShardingPolicy policy :
       {ShardingPolicy::kDynamic, ShardingPolicy::kStaticRandom,
        ShardingPolicy::kSinglePipeline, ShardingPolicy::kIdealLpt}) {
    if (name == to_string(policy)) return policy;
  }
  throw ConfigError("unknown sharding policy '" + name +
                    "' (expected dynamic|static-random|single-pipeline|"
                    "ideal-lpt)");
}

ShardedState::ShardedState(const std::vector<ir::RegisterSpec>& specs,
                           const std::vector<bool>& shardable,
                           std::uint32_t pipelines, ShardingPolicy policy,
                           Rng rng)
    : k_(pipelines), policy_(policy), alive_(pipelines, true),
      shardable_(shardable), values_(ir::initial_registers(specs)) {
  if (pipelines == 0) throw ConfigError("ShardedState: pipelines must be > 0");
  if (shardable_.size() != specs.size()) {
    throw ConfigError("ShardedState: shardable mask size mismatch");
  }
  const bool static_policy = policy_ == ShardingPolicy::kStaticRandom ||
                             policy_ == ShardingPolicy::kSinglePipeline ||
                             k_ == 1;
  resets_.resize(specs.size());
  for (std::size_t r = 0; r < specs.size(); ++r) {
    resets_[r] = static_policy || shardable_[r];
    PerReg per;
    per.map.assign(specs[r].size, pin_pipeline());
    per.access.assign(specs[r].size, 0);
    per.stamp.assign(specs[r].size, 0);
    per.in_flight.assign(specs[r].size, 0);
    if (shardable_[r] && policy_ != ShardingPolicy::kSinglePipeline) {
      // Initial placement: uniform random spread across pipelines. Every
      // policy starts from the same kind of compile-time placement; the
      // policies differ only in whether/how they rebalance.
      for (auto& p : per.map) {
        p = static_cast<PipelineId>(rng.next_below(k_));
      }
    }
    per.members.resize(k_);
    per.pos.resize(specs[r].size);
    for (RegIndex i = 0; i < per.map.size(); ++i) {
      per.pos[i] = static_cast<std::uint32_t>(per.members[per.map[i]].size());
      per.members[per.map[i]].push_back(i);
    }
    per.lane_load.assign(k_, 0);
    regs_.push_back(std::move(per));
  }
}

PipelineId ShardedState::pipeline_of(RegId reg, RegIndex index) const {
  if (!shardable_[reg] || policy_ == ShardingPolicy::kSinglePipeline) {
    return pin_pipeline();
  }
  if (index == kUnresolvedIndex) return pin_pipeline();
  return regs_[reg].map[index];
}

void ShardedState::note_resolved(RegId reg, RegIndex index) {
  if (index == kUnresolvedIndex) return;
  auto& per = regs_[reg];
  if (per.stamp[index] == per.epoch) {
    ++per.access[index];
  } else {
    // First touch this window: stamp the counter and remember the index so
    // the next rebalance scans only the working set.
    per.stamp[index] = per.epoch;
    per.access[index] = 1;
    per.touched.push_back(index);
  }
  per.lane_load[per.map[index]] += 1;
  ++per.in_flight[index];
  if (resets_[reg]) window_dirty_ = true;
  ++counts_.state_accesses;
}

void ShardedState::note_completed(RegId reg, RegIndex index) {
  if (index == kUnresolvedIndex) return;
  auto& per = regs_[reg];
  if (per.in_flight[index] == 0) {
    throw Error("ShardedState::note_completed: in-flight counter underflow "
                "(reg " + std::to_string(reg) + ", index " +
                std::to_string(index) + ")");
  }
  --per.in_flight[index];
}

std::uint32_t ShardedState::alive_count() const {
  return static_cast<std::uint32_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

void ShardedState::move_index(PerReg& per, RegIndex i, PipelineId to) {
  const PipelineId from = per.map[i];
  if (from == to) return;
  auto& src = per.members[from];
  const std::uint32_t slot = per.pos[i];
  const RegIndex last = src.back();
  src[slot] = last;
  per.pos[last] = slot;
  src.pop_back();
  per.pos[i] = static_cast<std::uint32_t>(per.members[to].size());
  per.members[to].push_back(i);
  per.map[i] = to;
}

void ShardedState::end_window(PerReg& per) {
  per.touched.clear();
  std::fill(per.lane_load.begin(), per.lane_load.end(), 0);
  if (++per.epoch == 0) {
    // One O(size) stamp sweep every 2^32 windows keeps recycled epoch
    // values from resurrecting counters stamped four billion windows ago.
    std::fill(per.stamp.begin(), per.stamp.end(), 0);
    per.epoch = 1;
  }
}

void ShardedState::finish_rebalance(std::size_t moves, std::uint64_t touched) {
  window_dirty_ = false;
  total_moves_ += moves;
  ++counts_.rebalance_runs;
  counts_.touched_indices += touched;
}

std::size_t ShardedState::fail_pipeline(PipelineId pipeline) {
  if (pipeline >= k_) {
    throw ConfigError("ShardedState::fail_pipeline: pipeline out of range");
  }
  if (!alive_[pipeline]) {
    throw Error("ShardedState::fail_pipeline: pipeline already dead");
  }
  alive_[pipeline] = false;
  if (alive_count() == 0) {
    throw Error("ShardedState::fail_pipeline: no surviving pipeline");
  }
  if (pin_ == pipeline) {
    for (PipelineId p = 0; p < k_; ++p) {
      if (alive_[p]) {
        pin_ = p;
        break;
      }
    }
  }
  std::size_t moved = 0;
  for (RegId r = 0; r < regs_.size(); ++r) {
    // Pinned arrays and the single-pipeline policy route through pin_,
    // which moved above; only mapped indices need re-homing.
    if (!shardable_[r] || policy_ == ShardingPolicy::kSinglePipeline) {
      continue;
    }
    auto& per = regs_[r];
    // Survivor load/count seed in O(k) from the incremental aggregates
    // (the full-scan original recomputed both over every index).
    std::vector<std::uint64_t> load(k_, 0);
    std::vector<std::uint64_t> count(k_, 0);
    for (PipelineId p = 0; p < k_; ++p) {
      if (!alive_[p]) continue;
      load[p] = per.lane_load[p];
      count[p] = per.members[p].size();
    }
    // The dead lane's membership list, restored to the ascending-index
    // order the full-map scan walked in (the list itself is swap-remove
    // order, and each move below mutates it).
    scratch_.assign(per.members[pipeline].begin(),
                    per.members[pipeline].end());
    std::sort(scratch_.begin(), scratch_.end());
    for (const RegIndex i : scratch_) {
      if (per.in_flight[i] != 0) {
        throw Error("ShardedState::fail_pipeline: reg " + std::to_string(r) +
                    " index " + std::to_string(i) + " has packets in "
                    "flight (drain the lane before remapping)");
      }
      // Least-loaded survivor by windowed access count, ties broken by
      // mapped-index count: the access counters are often all zero here
      // (they reset every remap period), and without the tie-break every
      // re-homed index would land on the first alive lane, turning one
      // survivor into a hotspot.
      PipelineId target = pin_;
      std::uint64_t best_load = ~std::uint64_t{0};
      std::uint64_t best_count = ~std::uint64_t{0};
      for (PipelineId p = 0; p < k_; ++p) {
        if (!alive_[p]) continue;
        if (load[p] < best_load ||
            (load[p] == best_load && count[p] < best_count)) {
          target = p;
          best_load = load[p];
          best_count = count[p];
        }
      }
      const std::uint32_t window_ctr = eff_access(per, i);
      load[target] += window_ctr;
      ++count[target];
      move_index(per, i, target);
      per.lane_load[target] += window_ctr;
      ++moved;
    }
    per.lane_load[pipeline] = 0;
  }
  total_moves_ += moved;
  return moved;
}

void ShardedState::recover_pipeline(PipelineId pipeline) {
  if (pipeline >= k_) {
    throw ConfigError("ShardedState::recover_pipeline: pipeline out of range");
  }
  if (alive_[pipeline]) {
    throw Error("ShardedState::recover_pipeline: pipeline is not dead");
  }
  alive_[pipeline] = true;
}

std::vector<std::uint64_t> ShardedState::pipeline_load(RegId reg) const {
  return regs_[reg].lane_load;
}

// ---------------------------------------------------------------------------
// Incremental periodic rebalance: O(touched), identical decisions to the
// full-scan reference below.
// ---------------------------------------------------------------------------

std::size_t ShardedState::rebalance() {
  if (policy_ == ShardingPolicy::kStaticRandom ||
      policy_ == ShardingPolicy::kSinglePipeline || k_ == 1) {
    // Static policies never move state, but the windowed counters still
    // close each period (epoch bump; the full-scan original memset them).
    std::uint64_t touched = 0;
    for (auto& per : regs_) {
      touched += per.touched.size();
      end_window(per);
    }
    finish_rebalance(0, touched);
    return 0;
  }
  std::size_t moves = 0;
  std::uint64_t touched = 0;
  for (RegId r = 0; r < regs_.size(); ++r) {
    if (!shardable_[r]) continue;
    moves += policy_ == ShardingPolicy::kIdealLpt ? rebalance_lpt(r)
                                                  : rebalance_one(r);
    touched += regs_[r].touched.size();
    end_window(regs_[r]);
  }
  finish_rebalance(moves, touched);
  return moves;
}

std::size_t ShardedState::rebalance_one(RegId reg) {
  // Figure 6: find pipelines H (max aggregate counter) and L (min); move
  // the index mapped to H with the largest counter value < (cmax-cmin)/2,
  // provided its in-flight counter is zero.
  auto& per = regs_[reg];
  // Consider only surviving lanes: a dead lane holds no active indices
  // and must never become a move target.
  std::int64_t hi = -1, lo = -1;
  for (PipelineId p = 0; p < k_; ++p) {
    if (!alive_[p]) continue;
    if (hi < 0 || per.lane_load[p] > per.lane_load[hi]) hi = p;
    if (lo < 0 || per.lane_load[p] < per.lane_load[lo]) lo = p;
  }
  if (hi < 0 || hi == lo || per.lane_load[hi] == per.lane_load[lo]) return 0;
  const std::uint64_t threshold =
      (per.lane_load[hi] - per.lane_load[lo]) / 2;
  // threshold == 0 admits no candidate (every counter is >= 0).
  if (threshold == 0) return 0;

  // The reference scan walks every index ascending with a strict-greater
  // best, i.e. the winner is the candidate with the largest counter and,
  // among equals, the smallest index. Candidates split into two classes:
  // touched this window (counter >= 1) and untouched (counter 0). A
  // touched candidate always beats an untouched one, so scan the
  // working-set list first with an explicit (counter desc, index asc)
  // comparator.
  std::int64_t best = -1;
  std::uint64_t best_ctr = 0;
  for (const RegIndex i : per.touched) {
    if (per.map[i] != static_cast<PipelineId>(hi)) continue;
    const std::uint32_t ctr = per.access[i]; // touched => stamp is current
    if (ctr >= threshold) continue;
    if (per.in_flight[i] != 0) continue;
    if (best < 0 || ctr > best_ctr ||
        (ctr == best_ctr && static_cast<std::int64_t>(i) < best)) {
      best = static_cast<std::int64_t>(i);
      best_ctr = ctr;
    }
  }
  if (best < 0) {
    // Cold fallback: with no touched candidate below the threshold the
    // reference scan settles on the lowest untouched (counter 0) index on
    // H with nothing in flight. Scan indices ascending and stop at the
    // first that qualifies: it costs the distance to the answer, not the
    // size of H's membership list, and only windows with no touched
    // candidate run it.
    for (RegIndex i = 0; i < per.map.size(); ++i) {
      if (per.map[i] != static_cast<PipelineId>(hi)) continue;
      if (per.stamp[i] == per.epoch) continue; // touched: handled above
      if (per.in_flight[i] != 0) continue;
      best = static_cast<std::int64_t>(i);
      break;
    }
  }
  if (best < 0) return 0;
  move_index(per, static_cast<RegIndex>(best), static_cast<PipelineId>(lo));
  return 1;
}

std::size_t ShardedState::rebalance_lpt(RegId reg) {
  // Ideal baseline: longest-processing-time greedy re-shard — sort indexes
  // by access count and place each on the least-loaded pipeline. Indexes
  // with packets in flight stay put (they seed the initial loads), and
  // indexes with zero recent accesses stay put too: re-homing them carries
  // no load now but would herd all cold state onto one pipeline, making
  // the *next* window's accesses collide there. Untouched indices are
  // exactly the zero-access ones and contribute zero seed load, so the
  // whole pass runs off the touched list.
  auto& per = regs_[reg];
  std::vector<std::uint64_t> load(k_, 0);
  scratch_.clear();
  for (const RegIndex i : per.touched) {
    if (per.in_flight[i] != 0) {
      load[per.map[i]] += per.access[i];
    } else {
      scratch_.push_back(i);
    }
  }
  // (counter desc, index asc) is a total order, so sorting the touched
  // subset yields the same sequence the reference gets from sorting an
  // ascending-index candidate list.
  std::sort(scratch_.begin(), scratch_.end(),
            [&](RegIndex a, RegIndex b) {
              if (per.access[a] != per.access[b]) {
                return per.access[a] > per.access[b];
              }
              return a < b;
            });
  std::size_t moves = 0;
  for (const RegIndex i : scratch_) {
    PipelineId target = pin_;
    std::uint64_t best = ~std::uint64_t{0};
    for (PipelineId p = 0; p < k_; ++p) {
      if (alive_[p] && load[p] < best) {
        target = p;
        best = load[p];
      }
    }
    load[target] += per.access[i];
    if (per.map[i] != target) {
      move_index(per, i, target);
      ++moves;
    }
  }
  return moves;
}

// ---------------------------------------------------------------------------
// Full-scan reference rebalance (the pre-incremental implementation,
// reading counters through the epoch stamps). Decision-for-decision equal
// to the incremental path — enforced by the equivalence property suite.
// ---------------------------------------------------------------------------

std::size_t ShardedState::rebalance_reference() {
  if (policy_ == ShardingPolicy::kStaticRandom ||
      policy_ == ShardingPolicy::kSinglePipeline || k_ == 1) {
    std::uint64_t touched = 0;
    for (auto& per : regs_) {
      touched += per.touched.size();
      end_window(per);
    }
    finish_rebalance(0, touched);
    return 0;
  }
  std::size_t moves = 0;
  std::uint64_t touched = 0;
  for (RegId r = 0; r < regs_.size(); ++r) {
    if (!shardable_[r]) continue;
    moves += policy_ == ShardingPolicy::kIdealLpt
                 ? rebalance_lpt_reference(r)
                 : rebalance_one_reference(r);
    touched += regs_[r].touched.size();
    end_window(regs_[r]);
  }
  finish_rebalance(moves, touched);
  return moves;
}

std::size_t ShardedState::rebalance_one_reference(RegId reg) {
  auto& per = regs_[reg];
  std::vector<std::uint64_t> load(k_, 0);
  for (RegIndex i = 0; i < per.map.size(); ++i) {
    load[per.map[i]] += eff_access(per, i);
  }
  std::int64_t hi = -1, lo = -1;
  for (PipelineId p = 0; p < k_; ++p) {
    if (!alive_[p]) continue;
    if (hi < 0 || load[p] > load[hi]) hi = p;
    if (lo < 0 || load[p] < load[lo]) lo = p;
  }
  if (hi < 0 || hi == lo || load[hi] == load[lo]) return 0;
  const std::uint64_t threshold = (load[hi] - load[lo]) / 2;

  // Candidates in decreasing counter order (skipping in-flight indexes,
  // per the §3.4 safety rule).
  std::int64_t best = -1;
  std::uint64_t best_ctr = 0;
  for (std::size_t i = 0; i < per.map.size(); ++i) {
    if (per.map[i] != static_cast<PipelineId>(hi)) continue;
    const std::uint32_t ctr = eff_access(per, static_cast<RegIndex>(i));
    if (ctr >= threshold) continue;
    if (per.in_flight[i] != 0) continue;
    if (best < 0 || ctr > best_ctr) {
      best = static_cast<std::int64_t>(i);
      best_ctr = ctr;
    }
  }
  if (best < 0) return 0;
  move_index(per, static_cast<RegIndex>(best), static_cast<PipelineId>(lo));
  return 1;
}

std::size_t ShardedState::rebalance_lpt_reference(RegId reg) {
  auto& per = regs_[reg];
  std::vector<std::uint64_t> load(k_, 0);
  std::vector<std::size_t> movable;
  movable.reserve(per.map.size());
  for (std::size_t i = 0; i < per.map.size(); ++i) {
    const std::uint32_t ctr = eff_access(per, static_cast<RegIndex>(i));
    if (per.in_flight[i] != 0 || ctr == 0) {
      load[per.map[i]] += ctr;
    } else {
      movable.push_back(i);
    }
  }
  std::sort(movable.begin(), movable.end(), [&](std::size_t a, std::size_t b) {
    if (per.access[a] != per.access[b]) return per.access[a] > per.access[b];
    return a < b;
  });
  std::size_t moves = 0;
  for (const std::size_t i : movable) {
    PipelineId target = pin_;
    std::uint64_t best = ~std::uint64_t{0};
    for (PipelineId p = 0; p < k_; ++p) {
      if (alive_[p] && load[p] < best) {
        target = p;
        best = load[p];
      }
    }
    load[target] += per.access[i];
    if (per.map[i] != target) {
      move_index(per, static_cast<RegIndex>(i), target);
      ++moves;
    }
  }
  return moves;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------------

template <class Io> void ShardedState::transfer(Io& io) {
  auto& storage = values_.storage();
  io.size_equal(storage.size(), "checkpoint: register count mismatch");
  for (auto& vals : storage) {
    io.size_equal(vals.size(), "checkpoint: register size mismatch");
    for (Value& v : vals) io.i64(v);
  }
  io.u32(pin_);
  io.check(pin_ < k_, "checkpoint: pin pipeline out of range");
  for (std::uint32_t p = 0; p < k_; ++p) io.boolean(alive_[p]);
  io.u64(total_moves_);
  io.boolean(window_dirty_);
  for (PerReg& per : regs_) {
    io.size_equal(per.map.size(), "checkpoint: shard map size mismatch");
    for (PipelineId& p : per.map) {
      io.u32(p);
      io.check(p < k_, "checkpoint: shard map pipeline out of range");
    }
    for (std::uint32_t& a : per.access) io.u32(a);
    for (std::uint32_t& s : per.stamp) io.u32(s);
    for (std::uint32_t& f : per.in_flight) io.u32(f);
    io.seq(per.touched, 4, [&](RegIndex& i) { io.u32(i); });
    for (auto& lane : per.members) {
      io.seq(lane, 4, [&](RegIndex& i) { io.u32(i); });
    }
    for (std::uint32_t& p : per.pos) io.u32(p);
    for (std::uint64_t& l : per.lane_load) io.u64(l);
    io.u32(per.epoch);
  }
}

// The simulators list this class inside their own transfer().
template void ShardedState::transfer(SaveIo&);
template void ShardedState::transfer(LoadIo&);

} // namespace mp5
