// Cycle-level behaviour via the timeline hook: the Figure 3 scenario and
// the §3.4 runtime invariants observed directly from the event stream.
#include <gtest/gtest.h>

#include <map>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

using Kind = TimelineEvent::Kind;

std::vector<TimelineEvent> record(const Mp5Program& prog, const Trace& trace,
                                  SimOptions opts) {
  std::vector<TimelineEvent> events;
  opts.timeline = [&events](const TimelineEvent& e) { events.push_back(e); };
  Mp5Simulator sim(prog, opts);
  (void)sim.run(trace);
  return events;
}

TEST(Timeline, Figure3PhantomHoldsEsPlaceBehindD) {
  // Packets A..D (mux=1, contending on reg1[1]) and E (mux=0, free) all
  // access reg3[2]. Without D4, E would reach reg3[2] before D (Table II);
  // with phantoms, D's placeholder precedes E in reg3's FIFO (Table III).
  const auto prog = compile_mp5(apps::figure3_source());
  std::vector<std::vector<Value>> fields = {
      {1, 1, 2, 0, 1}, {1, 1, 2, 0, 1}, {1, 1, 2, 0, 1}, {1, 1, 2, 0, 1},
      {1, 3, 2, 0, 0}, // E
  };
  const auto trace = trace_from_fields(fields, 2);

  // Whether E's data packet physically beats D to reg3 depends on the
  // random shard placement (if reg2[3] co-locates with reg1[1], E queues
  // behind D earlier). Sweep seeds: the processing order must hold for
  // every placement, and the Table III race (E inserted first, D popped
  // first, stage blocked in between) must occur for some placement.
  bool race_observed = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto events = record(prog, trace, mp5_options(2, seed));
    // reg3's stage: the stage of E's (seq 4) last phantom.
    StageId reg3_stage = 0;
    for (const auto& e : events) {
      if (e.kind == Kind::kPhantomPush && e.seq == 4) {
        reg3_stage = std::max(reg3_stage, e.stage);
      }
    }
    ASSERT_GT(reg3_stage, 0u);
    Cycle d_pop = 0, e_pop = 0, d_insert = 0, e_insert = 0;
    for (const auto& e : events) {
      if (e.stage != reg3_stage) continue;
      if (e.kind == Kind::kPopData && e.seq == 3) d_pop = e.cycle;
      if (e.kind == Kind::kPopData && e.seq == 4) e_pop = e.cycle;
      if (e.kind == Kind::kInsert && e.seq == 3) d_insert = e.cycle;
      if (e.kind == Kind::kInsert && e.seq == 4) e_insert = e.cycle;
    }
    // C1: D (arrival 3) is always processed before E (arrival 4) at reg3.
    EXPECT_LT(d_pop, e_pop) << "seed " << seed;
    if (e_insert < d_insert) {
      // The Table III race: E's data packet is queued behind D's phantom.
      // The wait can surface either as blocked cycles or as the stage
      // serving earlier packets (A-C) in the meantime; the mandatory part
      // is that E is not served during the window.
      for (const auto& e : events) {
        if (e.kind == Kind::kPopData && e.seq == 4 &&
            e.stage == reg3_stage) {
          EXPECT_GE(e.cycle, d_pop) << "seed " << seed;
        }
      }
      race_observed = true;
    }
  }
  EXPECT_TRUE(race_observed)
      << "no shard placement produced the Table III race";
}

TEST(Timeline, Invariant2StatelessPacketsNeverQueued) {
  // Mixed stateful/stateless traffic: no packet with an empty plan may
  // ever appear in an insert event (stateless packets are never queued).
  const std::string src = R"(
    struct Packet { int kind; int v; };
    int acc[8] = {0};
    void f(struct Packet p) {
      if (p.kind == 1) { acc[p.v % 8] = acc[p.v % 8] + p.v; }
    }
  )";
  const auto prog = compile_mp5(src);
  Rng rng(5);
  auto fields = random_fields(2000, 2, 8, rng);
  for (auto& f : fields) f[0] = rng.chance(0.5) ? 1 : 0;
  const auto trace = trace_from_fields(fields, 4);
  const auto events = record(prog, trace, mp5_options(4, 5));

  std::unordered_set<SeqNo> stateless;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i][0] == 0) stateless.insert(i);
  }
  for (const auto& e : events) {
    if (e.kind == Kind::kInsert) {
      EXPECT_FALSE(stateless.count(e.seq))
          << "stateless packet " << e.seq << " was queued";
    }
  }
}

TEST(Timeline, Invariant1PhantomsDeliveredInArrivalOrder) {
  // Per (pipeline, stage), phantom pushes must be seq-monotone per cycle
  // batch — the phantom channel preserves generation order.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 32));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 32;
  config.packets = 2000;
  const auto trace = make_synthetic_trace(config);
  const auto events = record(prog, trace, mp5_options(4, 6));

  std::map<std::pair<PipelineId, StageId>, SeqNo> last;
  for (const auto& e : events) {
    if (e.kind != Kind::kPhantomPush) continue;
    auto key = std::make_pair(e.pipeline, e.stage);
    auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_GT(e.seq, it->second)
          << "phantoms out of order at pipeline " << e.pipeline << " stage "
          << e.stage;
    }
    last[key] = e.seq;
  }
}

TEST(Timeline, EveryPacketAdmittedThenEgressedExactlyOnce) {
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 64));
  SyntheticConfig config;
  config.stateful_stages = 2;
  config.reg_size = 64;
  config.packets = 1000;
  const auto trace = make_synthetic_trace(config);
  const auto events = record(prog, trace, mp5_options(4, 7));

  std::map<SeqNo, int> admits, egresses;
  for (const auto& e : events) {
    if (e.kind == Kind::kAdmit) ++admits[e.seq];
    if (e.kind == Kind::kEgress) ++egresses[e.seq];
  }
  ASSERT_EQ(admits.size(), trace.size());
  ASSERT_EQ(egresses.size(), trace.size());
  for (const auto& [seq, n] : admits) EXPECT_EQ(n, 1) << seq;
  for (const auto& [seq, n] : egresses) EXPECT_EQ(n, 1) << seq;
}

TEST(Timeline, ConservativeCancellationEmitsCancelEvents) {
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  Rng rng(9);
  const auto trace = trace_from_fields(random_fields(500, 3, 64, rng), 4);
  const auto events = record(prog, trace, mp5_options(4, 9));
  std::size_t cancels = 0, wasted = 0;
  // A guard resolves while its packet is processed; the cancellation it
  // triggers carries that processing's cycle, so the stream stays
  // cycle-ordered.
  std::map<SeqNo, Cycle> last_processed;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (i > 0) {
      ASSERT_GE(e.cycle, events[i - 1].cycle) << "event " << i;
    }
    if (e.kind == Kind::kPopData || e.kind == Kind::kPassThrough) {
      last_processed[e.seq] = e.cycle;
    }
    if (e.kind == Kind::kPopWasted) ++wasted;
    if (e.kind != Kind::kCancel) continue;
    ++cancels;
    const auto it = last_processed.find(e.seq);
    ASSERT_NE(it, last_processed.end()) << "cancel before any processing";
    EXPECT_EQ(e.cycle, it->second) << "seq " << e.seq;
  }
  EXPECT_GT(cancels, 0u);
  EXPECT_EQ(cancels, wasted); // every cancelled phantom costs one pop
}


TEST(Timeline, RealisticChannelDeliversAfterStageHops) {
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 32));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 32;
  config.packets = 600;
  const auto trace = make_synthetic_trace(config);
  SimOptions opts = mp5_options(4, 8);
  std::vector<TimelineEvent> events;
  opts.timeline = [&events](const TimelineEvent& e) { events.push_back(e); };
  Mp5Simulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed, trace.size());

  std::map<SeqNo, Cycle> admit_cycle;
  std::map<std::pair<SeqNo, StageId>, Cycle> phantom_cycle;
  for (const auto& e : events) {
    if (e.kind == Kind::kAdmit) admit_cycle[e.seq] = e.cycle;
    if (e.kind == Kind::kPhantomPush) {
      phantom_cycle[{e.seq, e.stage}] = e.cycle;
    }
  }
  std::size_t checked = 0;
  for (const auto& e : events) {
    if (e.kind == Kind::kPhantomPush) {
      // Exactly `stage` hops after arrival.
      ASSERT_TRUE(admit_cycle.count(e.seq));
      EXPECT_EQ(e.cycle, admit_cycle[e.seq] + e.stage) << "pkt " << e.seq;
    }
    if (e.kind == Kind::kInsert) {
      // The data packet always finds its phantom already delivered.
      auto it = phantom_cycle.find({e.seq, e.stage});
      ASSERT_NE(it, phantom_cycle.end()) << "pkt " << e.seq;
      EXPECT_LE(it->second, e.cycle);
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(Timeline, RealisticChannelDropsPlaceholderAndData) {
  // 4x overload on a scalar register with tiny FIFOs: phantoms dropped at
  // delivery must translate into data drops, never deadlock.
  const auto prog = compile_mp5(apps::packet_counter_source());
  Rng rng(77);
  const auto trace = trace_from_fields(random_fields(2000, 1, 4, rng), 4);
  SimOptions opts = mp5_options(4, 77);
  opts.fifo_capacity = 8;
  Mp5Simulator sim(prog, opts);
  const auto result = sim.run(trace);
  EXPECT_GT(result.dropped_phantom, 0u);
  EXPECT_GT(result.dropped_data, 0u);
  EXPECT_EQ(result.egressed + result.dropped_data, result.offered);
}

} // namespace
} // namespace mp5::test
