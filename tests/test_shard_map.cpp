#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "mp5/shard_map.hpp"
#include "packet/packet.hpp"

namespace mp5 {
namespace {

std::vector<ir::RegisterSpec> one_reg(std::size_t size) {
  ir::RegisterSpec spec;
  spec.name = "r";
  spec.size = size;
  return {spec};
}

TEST(ShardMap, InitialPlacementSpreadsAcrossPipelines) {
  ShardedState state(one_reg(1024), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(1));
  std::vector<int> per_pipe(4, 0);
  for (RegIndex i = 0; i < 1024; ++i) ++per_pipe[state.pipeline_of(0, i)];
  for (const int n : per_pipe) EXPECT_NEAR(n, 256, 80);
}

TEST(ShardMap, SinglePipelinePolicyPinsEverything) {
  ShardedState state(one_reg(64), {true}, 4,
                     ShardingPolicy::kSinglePipeline, Rng(1));
  for (RegIndex i = 0; i < 64; ++i) EXPECT_EQ(state.pipeline_of(0, i), 0u);
}

TEST(ShardMap, UnshardableArrayAlwaysPinned) {
  ShardedState state(one_reg(64), {false}, 4, ShardingPolicy::kDynamic,
                     Rng(1));
  for (RegIndex i = 0; i < 64; ++i) EXPECT_EQ(state.pipeline_of(0, i), 0u);
  EXPECT_EQ(state.pipeline_of(0, kUnresolvedIndex), 0u);
}

TEST(ShardMap, Figure6HeuristicMovesHotLoadTowardBalance) {
  // One hot index (100 accesses/period) and one medium index (40): the
  // Figure 6 rule moves the medium one off the hot pipeline (its counter
  // is below C = (cmax - cmin) / 2) and then reaches a stable split.
  ShardedState state(one_reg(8), {true}, 2, ShardingPolicy::kDynamic, Rng(3));
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) {
      state.note_resolved(0, 0);
      state.note_completed(0, 0);
      if (i % 5 < 2) {
        state.note_resolved(0, 1);
        state.note_completed(0, 1);
      }
    }
    state.rebalance();
  }
  EXPECT_NE(state.pipeline_of(0, 0), state.pipeline_of(0, 1));
}

TEST(ShardMap, Figure6RuleNeverOvershoots) {
  // Two equally hot indexes co-located: both counters exceed C, so the
  // heuristic refuses to move them (moving would just swap the imbalance)
  // — §3.5.2 acknowledges the heuristic is not optimal.
  ShardedState state(one_reg(2), {true}, 2, ShardingPolicy::kDynamic, Rng(1));
  const auto p0 = state.pipeline_of(0, 0);
  const bool colocated = p0 == state.pipeline_of(0, 1);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) {
      for (const RegIndex idx : {0u, 1u}) {
        state.note_resolved(0, idx);
        state.note_completed(0, idx);
      }
    }
    state.rebalance();
  }
  if (colocated) {
    EXPECT_EQ(state.pipeline_of(0, 0), state.pipeline_of(0, 1));
  } else {
    EXPECT_NE(state.pipeline_of(0, 0), state.pipeline_of(0, 1));
  }
}

TEST(ShardMap, RebalanceRespectsInFlightGuard) {
  ShardedState state(one_reg(4), {true}, 2, ShardingPolicy::kDynamic, Rng(5));
  // Make every index in-flight: nothing may move.
  for (RegIndex i = 0; i < 4; ++i) state.note_resolved(0, i);
  std::vector<PipelineId> before;
  for (RegIndex i = 0; i < 4; ++i) before.push_back(state.pipeline_of(0, i));
  for (int round = 0; round < 10; ++round) {
    for (RegIndex i = 0; i < 4; ++i) {
      state.note_resolved(0, i); // keep counters hot
      state.note_completed(0, i);
    }
    state.rebalance();
  }
  for (RegIndex i = 0; i < 4; ++i) {
    EXPECT_EQ(state.pipeline_of(0, i), before[i]) << "index " << i;
  }
}

TEST(ShardMap, StaticPolicyNeverMoves) {
  ShardedState state(one_reg(32), {true}, 4, ShardingPolicy::kStaticRandom,
                     Rng(7));
  std::vector<PipelineId> before;
  for (RegIndex i = 0; i < 32; ++i) before.push_back(state.pipeline_of(0, i));
  for (int round = 0; round < 20; ++round) {
    for (RegIndex i = 0; i < 32; ++i) {
      state.note_resolved(0, i % 3); // heavy skew
      state.note_completed(0, i % 3);
    }
    EXPECT_EQ(state.rebalance(), 0u);
  }
  for (RegIndex i = 0; i < 32; ++i) {
    EXPECT_EQ(state.pipeline_of(0, i), before[i]);
  }
}

TEST(ShardMap, LptProducesBalancedLoads) {
  ShardedState state(one_reg(64), {true}, 4, ShardingPolicy::kIdealLpt,
                     Rng(9));
  // Skewed access counts: index i gets ~ (64 - i) accesses.
  for (RegIndex i = 0; i < 64; ++i) {
    for (RegIndex n = 0; n < 64 - i; ++n) {
      state.note_resolved(0, i);
      state.note_completed(0, i);
    }
  }
  // Re-apply the same pattern and rebalance, then inspect load balance.
  state.rebalance();
  for (RegIndex i = 0; i < 64; ++i) {
    for (RegIndex n = 0; n < 64 - i; ++n) {
      state.note_resolved(0, i);
      state.note_completed(0, i);
    }
  }
  const auto load = state.pipeline_load(0);
  const auto total = std::accumulate(load.begin(), load.end(), 0ull);
  for (const auto l : load) {
    EXPECT_NEAR(static_cast<double>(l), total / 4.0, total * 0.05);
  }
}

TEST(ShardMap, InFlightUnderflowDetected) {
  ShardedState state(one_reg(4), {true}, 2, ShardingPolicy::kDynamic, Rng(11));
  EXPECT_THROW(state.note_completed(0, 1), Error);
}

TEST(ShardMap, UnderflowErrorNamesRegAndIndex) {
  ShardedState state(one_reg(8), {true}, 2, ShardingPolicy::kDynamic, Rng(11));
  try {
    state.note_completed(0, 3);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reg 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("index 3"), std::string::npos) << msg;
  }
}

TEST(ShardMap, FailPipelineInFlightErrorNamesRegAndIndex) {
  ShardedState state(one_reg(8), {true}, 2, ShardingPolicy::kDynamic, Rng(21));
  // Leave exactly one index in flight, then fail its lane.
  const RegIndex stuck = 5;
  state.note_resolved(0, stuck);
  try {
    state.fail_pipeline(state.pipeline_of(0, stuck));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reg 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("index 5"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Incremental-vs-reference equivalence property suite.
//
// Two ShardedState instances seeded identically (so their initial random
// placements match) are driven through the same access/completion/fault
// sequence; one rebalances through the incremental O(touched) path, the
// other through the full-scan rebalance_reference(). Every window their
// shard maps, move counts, and per-lane loads must agree bit for bit.
// ---------------------------------------------------------------------------

std::vector<ir::RegisterSpec> mixed_regs(std::size_t size) {
  ir::RegisterSpec a, b, c;
  a.name = "a";
  a.size = size;
  b.name = "pinned";
  b.size = size / 2;
  c.name = "c";
  c.size = size;
  return {a, b, c};
}

void expect_identical_sharding(const ShardedState& inc,
                               const ShardedState& ref,
                               const std::vector<ir::RegisterSpec>& specs) {
  ASSERT_EQ(inc.total_moves(), ref.total_moves());
  for (RegId r = 0; r < specs.size(); ++r) {
    for (RegIndex i = 0; i < specs[r].size; ++i) {
      ASSERT_EQ(inc.pipeline_of(r, i), ref.pipeline_of(r, i))
          << "reg " << r << " index " << i;
    }
    ASSERT_EQ(inc.pipeline_load(r), ref.pipeline_load(r)) << "reg " << r;
  }
}

void run_equivalence(ShardingPolicy policy, std::uint32_t k,
                     std::uint64_t seed, bool with_faults) {
  const auto specs = mixed_regs(64);
  const std::vector<bool> shardable = {true, false, true};
  ShardedState inc(specs, shardable, k, policy, Rng(seed));
  ShardedState ref(specs, shardable, k, policy, Rng(seed));
  expect_identical_sharding(inc, ref, specs); // identical initial placement

  Rng ops(seed * 7919 + 17);
  std::vector<std::pair<RegId, RegIndex>> outstanding;
  PipelineId dead = k; // none
  for (int round = 0; round < 24; ++round) {
    const int accesses = 10 + static_cast<int>(ops.next_below(60));
    for (int n = 0; n < accesses; ++n) {
      const RegId r = static_cast<RegId>(ops.next_below(specs.size()));
      // Skewed working set: half the draws hammer a 4-index hot set so
      // the Figure 6 threshold and the cold-index fallback both trigger.
      const RegIndex i = static_cast<RegIndex>(
          ops.chance(0.5) ? ops.next_below(4)
                          : ops.next_below(specs[r].size));
      inc.note_resolved(r, i);
      ref.note_resolved(r, i);
      if (ops.chance(0.7)) {
        inc.note_completed(r, i);
        ref.note_completed(r, i);
      } else {
        outstanding.emplace_back(r, i); // stays in flight across the remap
      }
    }
    if (with_faults && round == 8) {
      // Fault plans require a drained lane: complete everything first.
      for (const auto& [r, i] : outstanding) {
        inc.note_completed(r, i);
        ref.note_completed(r, i);
      }
      outstanding.clear();
      dead = static_cast<PipelineId>(seed % k);
      ASSERT_EQ(inc.fail_pipeline(dead), ref.fail_pipeline(dead));
      expect_identical_sharding(inc, ref, specs);
    }
    if (with_faults && round == 16 && dead < k) {
      inc.recover_pipeline(dead);
      ref.recover_pipeline(dead);
      dead = k;
    }
    ASSERT_EQ(inc.window_dirty(), ref.window_dirty());
    ASSERT_EQ(inc.rebalance(), ref.rebalance_reference());
    expect_identical_sharding(inc, ref, specs);
    // Drain roughly half the in-flight set each round; the rest keeps
    // exercising the in-flight move guard.
    std::vector<std::pair<RegId, RegIndex>> keep;
    for (const auto& [r, i] : outstanding) {
      if (ops.chance(0.5)) {
        inc.note_completed(r, i);
        ref.note_completed(r, i);
      } else {
        keep.emplace_back(r, i);
      }
    }
    outstanding.swap(keep);
  }
}

TEST(ShardMapEquivalence, IncrementalMatchesReferenceAcrossSeedsAndPolicies) {
  for (const ShardingPolicy policy :
       {ShardingPolicy::kDynamic, ShardingPolicy::kIdealLpt,
        ShardingPolicy::kStaticRandom, ShardingPolicy::kSinglePipeline}) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)) +
                     " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        run_equivalence(policy, k, seed, /*with_faults=*/false);
      }
    }
  }
}

TEST(ShardMapEquivalence, IncrementalMatchesReferenceUnderFaultPlans) {
  for (const ShardingPolicy policy :
       {ShardingPolicy::kDynamic, ShardingPolicy::kIdealLpt}) {
    for (const std::uint32_t k : {2u, 4u, 8u}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)) +
                     " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        run_equivalence(policy, k, seed, /*with_faults=*/true);
      }
    }
  }
}

TEST(ShardMapEquivalence, ColdIndexFallbackMatchesReference) {
  // One super-hot index and nothing else touched: every touched candidate
  // on the hot lane is >= the threshold, so the Figure 6 scan settles on a
  // *cold* (untouched) index — the reference finds it by scanning the full
  // map, the incremental path via the hot lane's membership list.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto specs = one_reg(32);
    ShardedState inc(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(seed));
    ShardedState ref(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(seed));
    for (int round = 0; round < 4; ++round) {
      for (int n = 0; n < 100; ++n) {
        inc.note_resolved(0, 0);
        inc.note_completed(0, 0);
        ref.note_resolved(0, 0);
        ref.note_completed(0, 0);
      }
      const std::size_t moves = inc.rebalance();
      ASSERT_EQ(moves, ref.rebalance_reference()) << "seed " << seed;
      if (round == 0) {
        EXPECT_EQ(moves, 1u) << "seed " << seed;
      }
      expect_identical_sharding(inc, ref, specs);
    }
  }
}

TEST(ShardMapEquivalence, ColdFallbackSkipsTouchedAndInFlightLowIndices) {
  // The hot lane's lowest indices are all disqualified: m[0] and m[1] are
  // touched at the threshold, m[2] has a packet in flight from the last
  // window. The cold fallback must step past them (and past every index
  // of the other lane) to m[3], exactly as the full scan does.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto specs = one_reg(64);
    ShardedState inc(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(seed));
    ShardedState ref(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(seed));
    std::vector<RegIndex> m; // lane 0's indices, ascending
    for (RegIndex i = 0; i < 64; ++i) {
      if (inc.pipeline_of(0, i) == 0) m.push_back(i);
    }
    ASSERT_GE(m.size(), 4u) << "seed " << seed;
    for (ShardedState* s : {&inc, &ref}) s->note_resolved(0, m[2]);
    // One access against none: threshold 0, no move.
    ASSERT_EQ(inc.rebalance(), 0u);
    ASSERT_EQ(ref.rebalance_reference(), 0u);
    for (ShardedState* s : {&inc, &ref}) {
      for (int n = 0; n < 100; ++n) {
        for (const RegIndex i : {m[0], m[1]}) {
          s->note_resolved(0, i);
          s->note_completed(0, i);
        }
      }
    }
    // Lane loads 200 vs 0: threshold 100, so neither touched index
    // qualifies and the fallback picks the lowest cold index on lane 0.
    ASSERT_EQ(inc.rebalance(), 1u) << "seed " << seed;
    ASSERT_EQ(ref.rebalance_reference(), 1u) << "seed " << seed;
    EXPECT_EQ(inc.pipeline_of(0, m[3]), 1u) << "seed " << seed;
    expect_identical_sharding(inc, ref, specs);
  }
}

TEST(ShardMapEquivalence, ColdFallbackFindsNothingWhenHotLaneIsAllTouched) {
  // Every index on lane 0 is touched: m[0] at the threshold, the rest
  // with a packet in flight. The fallback scan runs off the end of the
  // array and both paths make no move.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto specs = one_reg(16);
    ShardedState inc(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(seed));
    ShardedState ref(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(seed));
    std::vector<RegIndex> m;
    for (RegIndex i = 0; i < 16; ++i) {
      if (inc.pipeline_of(0, i) == 0) m.push_back(i);
    }
    ASSERT_FALSE(m.empty()) << "seed " << seed;
    for (ShardedState* s : {&inc, &ref}) {
      for (int n = 0; n < 100; ++n) {
        s->note_resolved(0, m[0]);
        s->note_completed(0, m[0]);
      }
      for (std::size_t j = 1; j < m.size(); ++j) s->note_resolved(0, m[j]);
    }
    ASSERT_EQ(inc.rebalance(), 0u) << "seed " << seed;
    ASSERT_EQ(ref.rebalance_reference(), 0u) << "seed " << seed;
    expect_identical_sharding(inc, ref, specs);
  }
}

TEST(ShardMap, WindowDirtyTracksObservableBoundaries) {
  ShardedState state(mixed_regs(64), {true, false, true}, 4,
                     ShardingPolicy::kDynamic, Rng(3));
  EXPECT_FALSE(state.window_dirty());
  // A touch on an unshardable register never dirties the window under the
  // dynamic policy: the rebalance neither moves nor resets it.
  state.note_resolved(1, 2);
  EXPECT_FALSE(state.window_dirty());
  state.note_completed(1, 2);
  state.note_resolved(0, 2);
  EXPECT_TRUE(state.window_dirty());
  EXPECT_EQ(state.window_touched(0), 1u);
  state.note_completed(0, 2);
  state.rebalance();
  EXPECT_FALSE(state.window_dirty());
  EXPECT_EQ(state.window_touched(0), 0u);
}

TEST(ShardMap, WindowDirtyAlwaysSetUnderStaticPolicies) {
  // Static policies reset *every* register's counters at the period, so
  // any touch makes the boundary observable.
  ShardedState state(mixed_regs(64), {true, false, true}, 4,
                     ShardingPolicy::kStaticRandom, Rng(3));
  state.note_resolved(1, 2);
  EXPECT_TRUE(state.window_dirty());
  state.note_completed(1, 2);
  state.rebalance();
  EXPECT_FALSE(state.window_dirty());
}

TEST(ShardMap, ReadsAndWritesHitFlatStorage) {
  auto specs = one_reg(4);
  specs[0].init = {5};
  ShardedState state(specs, {true}, 2, ShardingPolicy::kDynamic, Rng(13));
  EXPECT_EQ(state.regs().read(0, 2), 5); // broadcast init
  state.regs().write(0, 2, 42);
  EXPECT_EQ(state.regs().read(0, 2), 42);
  EXPECT_EQ(state.regs().storage()[0][2], 42);
}

} // namespace
} // namespace mp5
