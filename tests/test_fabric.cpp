// Fabric subsystem tests: topology validation, WCMP hashing statistics,
// workload determinism/resumability, fabric-level seeded reproducibility
// (same seed -> identical FabricResult, field by field), packet
// conservation under every load-balancing mode, and graceful degradation
// under switch/link fault plans.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "fabric/fabric.hpp"
#include "fabric/results.hpp"
#include "fabric/topology.hpp"
#include "fabric/wcmp.hpp"
#include "fabric/workload.hpp"
#include "telemetry/json_writer.hpp"

namespace mp5::fabric {
namespace {

// A fabric small enough to run in milliseconds but big enough to exercise
// multi-spine load balancing: 4 leaves x 2 spines, 64 hosts.
FabricOptions small_options(LbMode lb, std::uint64_t seed = 7) {
  FabricOptions o;
  o.topology.leaves = 4;
  o.topology.spines = 2;
  o.topology.hosts_per_leaf = 16;
  o.lb = lb;
  o.workload.flows = 400;
  o.workload.flow_rate = 0.5;
  o.workload.mean_lifetime = 600.0;
  o.workload.max_flow_packets = 8;
  o.workload.seed = seed;
  o.seed = seed;
  o.pipelines = 4;
  o.max_cycles = 2'000'000;
  return o;
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

TEST(FabricTopology, ValidateRejectsDegenerateShapes) {
  FabricTopology topo;
  topo.leaves = 0;
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  topo.spines = 0;
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  topo.hosts_per_leaf = 0;
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  topo.link_latency = 0; // same-cycle hops would break the step order
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  topo.link_bytes_per_cycle = 0.0;
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  topo.spine_weights = {1.0}; // wrong arity for 2 spines
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  topo.spine_weights = {0.0, 0.0}; // no usable spine at all
  EXPECT_THROW(topo.validate(), ConfigError);
  topo = FabricTopology{};
  EXPECT_NO_THROW(topo.validate());
}

TEST(FabricTopology, NamesRoundTrip) {
  FabricTopology topo;
  topo.leaves = 3;
  topo.spines = 2;
  for (SwitchId id = 0; id < topo.num_switches(); ++id) {
    EXPECT_EQ(topo.switch_by_name(topo.switch_name(id)), id);
  }
  EXPECT_EQ(topo.switch_name(0), "leaf0");
  EXPECT_EQ(topo.switch_name(3), "spine0");
  EXPECT_THROW(topo.switch_by_name("leaf9"), ConfigError);
  EXPECT_THROW(topo.switch_by_name("core0"), ConfigError);
}

TEST(FabricTopology, LinkIdsAreDenseAndDirectional) {
  FabricTopology topo;
  topo.leaves = 4;
  topo.spines = 3;
  std::set<LinkId> seen;
  for (SwitchId l = 0; l < topo.leaves; ++l) {
    for (std::uint32_t s = 0; s < topo.spines; ++s) {
      const LinkId up = topo.uplink(l, s);
      const LinkId down = topo.downlink(s, l);
      EXPECT_TRUE(topo.is_uplink(up));
      EXPECT_FALSE(topo.is_uplink(down));
      EXPECT_EQ(topo.link_from(up), l);
      EXPECT_EQ(topo.link_to(up), topo.spine_id(s));
      EXPECT_EQ(topo.link_from(down), topo.spine_id(s));
      EXPECT_EQ(topo.link_to(down), l);
      // A spine ingress port names the source leaf; a leaf ingress port
      // comes after the host ports.
      EXPECT_EQ(topo.ingress_port(up), l);
      EXPECT_EQ(topo.ingress_port(down), topo.hosts_per_leaf + s);
      seen.insert(up);
      seen.insert(down);
    }
  }
  EXPECT_EQ(seen.size(), topo.num_links());
  EXPECT_EQ(*seen.rbegin(), topo.num_links() - 1);
}

TEST(FabricTopology, HostMapping) {
  FabricTopology topo;
  topo.leaves = 4;
  topo.hosts_per_leaf = 16;
  EXPECT_EQ(topo.num_hosts(), 64u);
  EXPECT_EQ(topo.leaf_of_host(0), 0u);
  EXPECT_EQ(topo.leaf_of_host(17), 1u);
  EXPECT_EQ(topo.host_port(17), 1u);
  EXPECT_EQ(topo.leaf_of_host(63), 3u);
}

// ---------------------------------------------------------------------
// WCMP hashing
// ---------------------------------------------------------------------

FiveTuple tuple_for(std::uint32_t i) {
  FiveTuple t;
  t.src = i * 2654435761u;
  t.dst = ~t.src;
  t.sport = static_cast<std::uint16_t>(i * 31 + 7);
  t.dport = static_cast<std::uint16_t>(i * 17 + 3);
  t.proto = 6;
  return t;
}

TEST(Wcmp, EqualWeightsSpreadUniformly) {
  // Chi-squared uniformity check over 4 equal paths. With 8000 draws and
  // 3 degrees of freedom the 99.9% critical value is 16.27; a sound hash
  // passes with huge margin, a broken one (constant, low-entropy) fails.
  const int kPaths = 4;
  const int kDraws = 8000;
  WcmpHasher hasher(HashAlg::kFiveTuple, 0, std::vector<double>(kPaths, 1.0));
  std::vector<int> counts(kPaths, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[hasher.pick(tuple_for(i))];
  const double expected = static_cast<double>(kDraws) / kPaths;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 16.27) << "chi-squared uniformity rejected";
}

TEST(Wcmp, WeightsShapeTheSplit) {
  // 3:1 weights should put ~75% of flows on path 0.
  WcmpHasher hasher(HashAlg::kFiveTuple, 0, {3.0, 1.0});
  int on0 = 0;
  const int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) {
    if (hasher.pick(tuple_for(i)) == 0) ++on0;
  }
  const double frac = static_cast<double>(on0) / kDraws;
  EXPECT_NEAR(frac, 0.75, 0.03);
}

TEST(Wcmp, ZeroWeightPathIsNeverPicked) {
  WcmpHasher hasher(HashAlg::kFiveTuple, 0, {1.0, 0.0, 1.0});
  for (int i = 0; i < 4000; ++i) {
    EXPECT_NE(hasher.pick(tuple_for(i)), 1u);
  }
}

TEST(Wcmp, SaltChangesTheSpread) {
  // Changing the salt must re-shuffle flow->path assignments (the CLI's
  // --salt exists exactly so two fabrics don't polarize identically).
  WcmpHasher a(HashAlg::kFiveTuple, 0, {1.0, 1.0});
  WcmpHasher b(HashAlg::kFiveTuple, 0xfeedface, {1.0, 1.0});
  int moved = 0;
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    if (a.pick(tuple_for(i)) != b.pick(tuple_for(i))) ++moved;
  }
  // Independent uniform picks disagree half the time.
  EXPECT_NEAR(static_cast<double>(moved) / kDraws, 0.5, 0.05);
}

TEST(Wcmp, HashAlgSelectsFields) {
  // AddressesOnly must ignore ports; FiveTuple must not.
  WcmpHasher addr(HashAlg::kAddressesOnly, 0, {1.0, 1.0, 1.0, 1.0});
  WcmpHasher full(HashAlg::kFiveTuple, 0, {1.0, 1.0, 1.0, 1.0});
  FiveTuple t = tuple_for(11);
  FiveTuple t2 = t;
  t2.sport ^= 0x1234;
  EXPECT_EQ(addr.hash(t), addr.hash(t2));
  EXPECT_NE(full.hash(t), full.hash(t2));
}

TEST(Wcmp, SetWeightsRejectsAllZero) {
  WcmpHasher hasher(HashAlg::kFiveTuple, 0, {1.0, 1.0});
  EXPECT_THROW(hasher.set_weights({0.0, 0.0}), ConfigError);
  EXPECT_NO_THROW(hasher.set_weights({0.0, 2.0}));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(hasher.pick(tuple_for(i)), 1u);
  }
}

TEST(Wcmp, ParseHashAlgNamesAndAliases) {
  EXPECT_EQ(parse_hash_alg("addresses"), HashAlg::kAddressesOnly);
  EXPECT_EQ(parse_hash_alg("five-tuple"), HashAlg::kFiveTuple);
  EXPECT_EQ(parse_hash_alg("5-tuple"), HashAlg::kFiveTuple);
  EXPECT_THROW(parse_hash_alg("crc16"), ConfigError);
}

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

TEST(FabricWorkload, SameSeedSameStream) {
  FabricWorkloadConfig cfg;
  cfg.flows = 500;
  cfg.seed = 42;
  FabricWorkload a(cfg, 64), b(cfg, 64);
  while (true) {
    const FabricPacketEvent* ea = a.peek();
    const FabricPacketEvent* eb = b.peek();
    ASSERT_EQ(ea == nullptr, eb == nullptr);
    if (!ea) break;
    EXPECT_DOUBLE_EQ(ea->time, eb->time);
    EXPECT_EQ(ea->flow, eb->flow);
    EXPECT_EQ(ea->pkt_index, eb->pkt_index);
    EXPECT_EQ(ea->src_host, eb->src_host);
    EXPECT_EQ(ea->dst_host, eb->dst_host);
    a.advance();
    b.advance();
  }
  EXPECT_EQ(a.emitted(), b.emitted());
  EXPECT_GT(a.emitted(), cfg.flows); // multi-packet flows exist
}

TEST(FabricWorkload, StreamIsTimeOrderedAndComplete) {
  FabricWorkloadConfig cfg;
  cfg.flows = 300;
  cfg.seed = 9;
  FabricWorkload w(cfg, 64);
  double last_time = -1.0;
  std::map<std::uint64_t, std::uint32_t> seen, expect;
  while (const FabricPacketEvent* ev = w.peek()) {
    EXPECT_GE(ev->time, last_time);
    last_time = ev->time;
    EXPECT_LT(ev->src_host, 64u);
    EXPECT_LT(ev->dst_host, 64u);
    EXPECT_NE(ev->src_host, ev->dst_host);
    EXPECT_EQ(seen[ev->flow], ev->pkt_index); // in-order within the flow
    ++seen[ev->flow];
    expect[ev->flow] = ev->pkt_count;
    w.advance();
  }
  EXPECT_EQ(seen.size(), cfg.flows);
  for (const auto& [flow, count] : seen) {
    EXPECT_EQ(count, expect[flow]) << "flow " << flow << " short";
  }
}

TEST(FabricWorkload, SkipToResumesMidStream) {
  FabricWorkloadConfig cfg;
  cfg.flows = 400;
  cfg.seed = 3;
  FabricWorkload full(cfg, 64), resumed(cfg, 64);
  for (int i = 0; i < 1000; ++i) full.advance();
  resumed.skip_to(1000);
  EXPECT_EQ(resumed.emitted(), 1000u);
  for (int i = 0; i < 500; ++i) {
    const FabricPacketEvent* ea = full.peek();
    const FabricPacketEvent* eb = resumed.peek();
    ASSERT_EQ(ea == nullptr, eb == nullptr);
    if (!ea) break;
    EXPECT_DOUBLE_EQ(ea->time, eb->time);
    EXPECT_EQ(ea->flow, eb->flow);
    EXPECT_EQ(ea->pkt_index, eb->pkt_index);
    full.advance();
    resumed.advance();
  }
}

TEST(FabricWorkload, ZipfMeanIsWithinRange) {
  const double mean = zipf_mean_packets(16, 1.2);
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 16.0);
}

// ---------------------------------------------------------------------
// Fabric: determinism, conservation, load balancing
// ---------------------------------------------------------------------

TEST(Fabric, SameSeedSameResultEveryLbMode) {
  // The reproducibility contract: two FabricSimulators built from the
  // same options produce field-by-field identical FabricResults.
  for (const LbMode lb :
       {LbMode::kEcmp, LbMode::kWcmp, LbMode::kFlowlet, LbMode::kConga}) {
    const FabricOptions opts = small_options(lb);
    FabricSimulator sim_a(opts);
    FabricSimulator sim_b(opts);
    const FabricResult a = sim_a.run();
    const FabricResult b = sim_b.run();
    std::string why;
    EXPECT_TRUE(same_fabric_results(a, b, &why))
        << lb_mode_name(lb) << ": " << why;
    EXPECT_TRUE(a.conserved());
    EXPECT_GT(a.injected, 0u);
    EXPECT_EQ(a.delivered, a.injected) << lb_mode_name(lb);
    EXPECT_FALSE(a.truncated);
  }
}

TEST(Fabric, DifferentSeedsDiffer) {
  const FabricResult a = FabricSimulator(small_options(LbMode::kConga, 7)).run();
  const FabricResult b = FabricSimulator(small_options(LbMode::kConga, 8)).run();
  std::string why;
  EXPECT_FALSE(same_fabric_results(a, b, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Fabric, EcmpUsesEverySpineAndSaltReshuffles) {
  FabricOptions opts = small_options(LbMode::kEcmp);
  const FabricResult a = FabricSimulator(opts).run();
  // Every uplink carried traffic (2 spines, hundreds of flows).
  for (const FabricLinkResult& l : a.links) {
    if (l.uplink) {
      EXPECT_GT(l.packets, 0u) << l.name;
    }
  }
  // A different salt moves flows to different uplinks.
  opts.salt = 0xabcdef;
  const FabricResult b = FabricSimulator(opts).run();
  bool some_link_changed = false;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    if (a.links[i].uplink && a.links[i].packets != b.links[i].packets) {
      some_link_changed = true;
    }
  }
  EXPECT_TRUE(some_link_changed);
  EXPECT_EQ(b.delivered, b.injected);
}

TEST(Fabric, WcmpHonorsSpineWeights) {
  FabricOptions opts = small_options(LbMode::kWcmp);
  opts.topology.spine_weights = {3.0, 1.0};
  const FabricResult r = FabricSimulator(opts).run();
  EXPECT_EQ(r.delivered, r.injected);
  std::uint64_t on0 = 0, on1 = 0;
  for (const FabricLinkResult& l : r.links) {
    if (!l.uplink) continue;
    if (l.to == opts.topology.spine_id(0)) on0 += l.packets;
    else on1 += l.packets;
  }
  EXPECT_GT(on0, 0u);
  EXPECT_GT(on1, 0u);
  // 3:1 weights: spine0 should carry clearly more than half. Flow sizes
  // are Zipf-skewed so the packet split is noisier than the flow split.
  EXPECT_GT(static_cast<double>(on0) / (on0 + on1), 0.55);
}

TEST(Fabric, ConservationHoldsUnderBoundedFifos) {
  // Tight per-stage FIFOs make the switches drop; every drop must land in
  // the fabric ledger with fate `in_switch` and conservation must hold.
  for (const LbMode lb : {LbMode::kFlowlet, LbMode::kConga}) {
    SCOPED_TRACE(lb_mode_name(lb));
    FabricOptions opts = small_options(lb);
    opts.fifo_capacity = 2;
    opts.workload.flow_rate = 2.0; // enough pressure to overflow
    const FabricResult r = FabricSimulator(opts).run();
    EXPECT_GT(r.dropped_in_switch, 0u);
    EXPECT_TRUE(r.conserved());
    EXPECT_EQ(r.injected, r.delivered + r.dropped_total() + r.in_flight_end);
  }
}

TEST(Fabric, FlowletSwitchingReordersAndEcmpDoesNot) {
  // Long flows sent in tight bursts at a high birth rate: a new flowlet
  // may take a spine whose queue is shorter than the one its flow's
  // earlier packets still sit in, so it overtakes them. ECMP pins every
  // flow to one path and never reorders.
  FabricOptions opts = small_options(LbMode::kFlowlet);
  opts.workload.flow_rate = 2.0;
  opts.workload.max_flow_packets = 64;
  opts.workload.burst_size = 16;
  opts.workload.burst_spacing = 1.0;
  const FabricResult flowlet = FabricSimulator(opts).run();
  EXPECT_GT(flowlet.reordered_packets, 0u);
  EXPECT_EQ(flowlet.delivered, flowlet.injected);

  opts.lb = LbMode::kEcmp;
  const FabricResult ecmp = FabricSimulator(opts).run();
  EXPECT_EQ(ecmp.reordered_packets, 0u);
  EXPECT_EQ(ecmp.delivered, ecmp.injected);
}

TEST(Fabric, TruncatedRunAccountsInFlight) {
  FabricOptions opts = small_options(LbMode::kConga);
  opts.max_cycles = 300; // far before the workload drains
  const FabricResult r = FabricSimulator(opts).run();
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.cycles_run, 300u);
  EXPECT_TRUE(r.conserved());
  EXPECT_GT(r.in_flight_end, 0u);
}

TEST(Fabric, PerSwitchResultsArePopulated) {
  const FabricOptions opts = small_options(LbMode::kConga);
  const FabricResult r = FabricSimulator(opts).run();
  ASSERT_EQ(r.switches.size(), opts.topology.num_switches());
  std::uint64_t spine_offered = 0;
  for (SwitchId id = 0; id < r.switches.size(); ++id) {
    const FabricSwitchResult& s = r.switches[id];
    EXPECT_EQ(s.name, opts.topology.switch_name(id));
    EXPECT_FALSE(s.killed);
    EXPECT_GT(s.sim.offered, 0u) << s.name;
    if (opts.topology.is_spine(id)) spine_offered += s.sim.offered;
  }
  // Each spine hop is one switch traversal; spine offered equals uplink
  // traffic.
  std::uint64_t uplink_pkts = 0;
  for (const FabricLinkResult& l : r.links) {
    if (l.uplink) uplink_pkts += l.packets;
  }
  EXPECT_EQ(spine_offered, uplink_pkts);
  // Utilization is a fraction of the run, and some uplink was busy.
  double max_util = 0.0;
  for (const FabricLinkResult& l : r.links) {
    EXPECT_GE(l.utilization, 0.0);
    EXPECT_LE(l.utilization, 1.0);
    max_util = std::max(max_util, l.utilization);
  }
  EXPECT_GT(max_util, 0.0);
  EXPECT_GE(r.uplink_util_skew, 1.0);
}

TEST(Fabric, FctAndLatencyAreMeasured) {
  const FabricResult r =
      FabricSimulator(small_options(LbMode::kFlowlet)).run();
  EXPECT_GT(r.fct_count, 0u);
  EXPECT_GT(r.fct_p50, 0.0);
  EXPECT_LE(r.fct_p50, r.fct_p90);
  EXPECT_LE(r.fct_p90, r.fct_p99);
  EXPECT_LE(r.fct_p99, r.fct_max);
  // Minimum end-to-end latency is two link crossings plus switch time.
  EXPECT_GT(r.latency_p50, 0.0);
  EXPECT_LE(r.latency_p50, r.latency_p99);
  EXPECT_EQ(r.flows_fully_delivered, r.flows_total);
}

// ---------------------------------------------------------------------
// Faults: graceful degradation (the acceptance criterion)
// ---------------------------------------------------------------------

TEST(FabricFaults, KillingASpineDegradesGracefully) {
  // Kill one of the two spines mid-run. Packets inside it drop with fate
  // `switch_killed`, traffic already heading there drops with fate
  // `dead_destination`, everything else reroutes via the survivor, and
  // the conservation ledger still balances exactly.
  FabricOptions opts = small_options(LbMode::kConga);
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillSwitch;
  ev.target = opts.topology.spine_id(1);
  ev.cycle = 400;
  opts.faults.events.push_back(ev);

  const FabricResult r = FabricSimulator(opts).run();
  EXPECT_TRUE(r.conserved());
  EXPECT_FALSE(r.truncated);
  // The fabric kept working: the overwhelming majority still delivered.
  EXPECT_GT(r.delivered, r.injected * 9 / 10);
  // The killed switch is marked, with its kill cycle.
  const FabricSwitchResult& dead = r.switches[opts.topology.spine_id(1)];
  EXPECT_TRUE(dead.killed);
  EXPECT_EQ(dead.killed_at, 400u);
  // Post-kill the dead spine's uplinks carried nothing more... but its
  // links are flagged.
  for (const FabricLinkResult& l : r.links) {
    if (l.to == opts.topology.spine_id(1) ||
        l.from == opts.topology.spine_id(1)) {
      EXPECT_TRUE(l.killed) << l.name;
    } else {
      EXPECT_FALSE(l.killed) << l.name;
    }
  }
  // Determinism holds under faults too.
  const FabricResult r2 = FabricSimulator(opts).run();
  std::string why;
  EXPECT_TRUE(same_fabric_results(r, r2, &why)) << why;
}

TEST(FabricFaults, KillingASpineShiftsEcmpWeights) {
  // Under ECMP the hasher must stop picking the dead spine: everything
  // injected after the kill rides the survivor and still delivers.
  FabricOptions opts = small_options(LbMode::kEcmp);
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillSwitch;
  ev.target = opts.topology.spine_id(0);
  ev.cycle = 300;
  opts.faults.events.push_back(ev);
  const FabricResult r = FabricSimulator(opts).run();
  EXPECT_TRUE(r.conserved());
  EXPECT_GT(r.delivered, r.injected * 9 / 10);
  EXPECT_GT(r.dropped_total(), 0u);
}

TEST(FabricFaults, KillingALeafDropsOnlyItsHostsTraffic) {
  // A dead leaf takes its hosts with it: their new packets drop with fate
  // `dead_source`, packets for them with `dead_destination`, and the ones
  // inside the leaf with `switch_killed`. The other leaves keep
  // delivering to each other.
  FabricOptions opts = small_options(LbMode::kConga);
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillSwitch;
  ev.target = opts.topology.switch_by_name("leaf1");
  ev.cycle = 400;
  opts.faults.events.push_back(ev);
  const FabricResult r = FabricSimulator(opts).run();
  EXPECT_TRUE(r.conserved());
  EXPECT_FALSE(r.truncated);
  EXPECT_TRUE(r.switches[ev.target].killed);
  EXPECT_EQ(r.switches[ev.target].killed_at, 400u);
  EXPECT_GT(r.dropped_dead_source, 0u);
  EXPECT_GT(r.dropped_dead_destination, 0u);
  EXPECT_GT(r.dropped_switch_killed, 0u);
  EXPECT_EQ(r.dropped_in_switch, 0u);
  EXPECT_GT(r.delivered, r.injected / 2);
}

TEST(FabricFaults, KillingOneLinkReroutes) {
  // A single dead uplink is routed around (the other spine still reaches
  // every leaf): no packet needs to be lost after the fault settles.
  FabricOptions opts = small_options(LbMode::kFlowlet);
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillLink;
  ev.link = opts.topology.uplink(0, 0); // leaf0 -> spine0
  ev.cycle = 500;
  opts.faults.events.push_back(ev);
  const FabricResult r = FabricSimulator(opts).run();
  EXPECT_TRUE(r.conserved());
  EXPECT_GT(r.delivered, r.injected * 95 / 100);
  EXPECT_TRUE(r.links[opts.topology.uplink(0, 0)].killed);
}

TEST(FabricFaults, PlanValidationCatchesBadTargets) {
  FabricTopology topo; // 4 x 2
  FabricFaultPlan plan;
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillSwitch;
  ev.target = topo.num_switches(); // out of range
  plan.events.push_back(ev);
  EXPECT_THROW(plan.validate(topo), ConfigError);
  plan.events.clear();
  ev.kind = FabricFaultEvent::Kind::kKillLink;
  ev.target = 0;
  ev.link = topo.num_links(); // out of range
  plan.events.push_back(ev);
  EXPECT_THROW(plan.validate(topo), ConfigError);
}

TEST(Fabric, ParseLbModeNamesAndErrors) {
  EXPECT_EQ(parse_lb_mode("ecmp"), LbMode::kEcmp);
  EXPECT_EQ(parse_lb_mode("wcmp"), LbMode::kWcmp);
  EXPECT_EQ(parse_lb_mode("flowlet"), LbMode::kFlowlet);
  EXPECT_EQ(parse_lb_mode("conga"), LbMode::kConga);
  EXPECT_THROW(parse_lb_mode("hula"), ConfigError);
  for (const LbMode lb :
       {LbMode::kEcmp, LbMode::kWcmp, LbMode::kFlowlet, LbMode::kConga}) {
    EXPECT_EQ(parse_lb_mode(lb_mode_name(lb)), lb);
  }
}

TEST(Fabric, RejectsBadOptions) {
  FabricOptions opts = small_options(LbMode::kConga);
  opts.topology.leaves = 0;
  EXPECT_THROW(FabricSimulator{opts}, ConfigError);
  opts = small_options(LbMode::kWcmp);
  opts.topology.spine_weights = {1.0, 2.0, 3.0}; // arity mismatch
  EXPECT_THROW(FabricSimulator{opts}, ConfigError);
  opts = small_options(LbMode::kConga);
  opts.pipelines = 0;
  EXPECT_THROW(FabricSimulator{opts}, ConfigError);
}

// ---------------------------------------------------------------------
// Golden result digests: fabric_result_digest covers every field
// same_fabric_results compares, so a change that moves one of these is a
// behaviour change, not a refactor.
// ---------------------------------------------------------------------

void expect_golden(const FabricOptions& opts, std::uint64_t golden,
                   const std::string& label) {
  const std::uint64_t digest =
      fabric_result_digest(FabricSimulator(opts).run());
  std::ostringstream got;
  got << "0x" << std::hex << digest;
  EXPECT_EQ(digest, golden) << label << " digest " << got.str();
}

TEST(FabricGolden, EveryLbMode) {
  // Equal spine weights make wcmp pick exactly as ecmp does.
  expect_golden(small_options(LbMode::kEcmp), 0xe0e562e2b550e697, "ecmp");
  expect_golden(small_options(LbMode::kWcmp), 0xe0e562e2b550e697, "wcmp");
  expect_golden(small_options(LbMode::kFlowlet), 0x3b9847f228280a0b, "flowlet");
  expect_golden(small_options(LbMode::kConga), 0x973464cd5f4ca2af, "conga");
  FabricOptions weighted = small_options(LbMode::kWcmp);
  weighted.topology.spine_weights = {3.0, 1.0};
  expect_golden(weighted, 0x544029b93cfeb3b2, "wcmp 3:1");
}

TEST(FabricGolden, FaultPlansAndTruncation) {
  FabricOptions spine_kill = small_options(LbMode::kConga);
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillSwitch;
  ev.target = spine_kill.topology.spine_id(1);
  ev.cycle = 400;
  spine_kill.faults.events.push_back(ev);
  expect_golden(spine_kill, 0xc71c44d2237dde63, "conga, spine1 killed @400");

  FabricOptions link_kill = small_options(LbMode::kFlowlet);
  ev.kind = FabricFaultEvent::Kind::kKillLink;
  ev.link = link_kill.topology.uplink(0, 0);
  ev.cycle = 500;
  link_kill.faults.events.push_back(ev);
  expect_golden(link_kill, 0xbd3b57f8e2c9e07d, "flowlet, leaf0->spine0 killed @500");

  FabricOptions truncated = small_options(LbMode::kConga);
  truncated.max_cycles = 300;
  expect_golden(truncated, 0x1b40adc4489dd38a, "conga, truncated @300");
}

// ---------------------------------------------------------------------
// kFabricFields / kFabricLinkFields are the one list of FabricResult's
// fields. Every row must reach each contract that walks it: equality,
// the digest and the results JSON.
// ---------------------------------------------------------------------

/// Converts to any member type: T{AnyField{}, ...} compiles with up to one
/// initializer per field of the aggregate T.
struct AnyField {
  template <typename T>
  operator T() const;
};
template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  }
  return sizeof...(Fields);
}

// A new field without a table row fails to compile here.
static_assert(field_count<FabricResult>() ==
                  std::size(kFabricFields) + 2, // + links, switches
              "every FabricResult scalar needs a kFabricFields row");
static_assert(field_count<FabricLinkResult>() == std::size(kFabricLinkFields),
              "every FabricLinkResult field needs a kFabricLinkFields row");

/// The JSON object opening at doc[open] with every object or array nested
/// in it cut out, so a key search sees only the object's own members.
/// Sets `end` to the index just past the closing brace.
std::string own_members(const std::string& doc, std::size_t open,
                        std::size_t* end) {
  std::string own;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < doc.size(); ++i) {
    const char c = doc[i];
    const int outer = depth;
    if (in_string) {
      if (c == '\\') {
        if (depth == 1) own += c;
        ++i; // an escaped character never ends the string
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      *end = i + 1;
      return own;
    }
    if (outer == 1 && depth == 1) own += doc[i];
  }
  ADD_FAILURE() << "unterminated object at " << open;
  return own;
}

/// `"key":value` exactly as the results writer formats it.
template <typename T>
std::string entry(const char* key, const T& value) {
  std::ostringstream out;
  telemetry::JsonWriter json(out);
  json.begin_object().kv(key, value).end_object();
  const std::string text = out.str();
  return text.substr(1, text.size() - 2);
}

/// True when `members` (from own_members) holds `entry` as a whole member.
bool has_member(const std::string& members, const std::string& entry) {
  return ("," + members + ",").find("," + entry + ",") != std::string::npos;
}

/// The own members of the object at the dotted `section` path of an
/// "mp5-fabric-results" document (section names are unique in it).
std::string section_members(const std::string& doc, const char* section) {
  std::size_t at = 0;
  std::string_view path = section;
  while (!path.empty()) {
    const std::size_t dot = path.find('.');
    std::string opening = "\"";
    opening.append(path.substr(0, dot)).append("\":{");
    at = doc.find(opening, at);
    if (at == std::string::npos) return "";
    path = dot == std::string_view::npos ? std::string_view{}
                                         : path.substr(dot + 1);
  }
  std::size_t end = 0;
  return own_members(doc, doc.find('{', at), &end);
}

/// The own members of links[index].
std::string link_members(const std::string& doc, std::size_t index) {
  std::size_t at = doc.find("\"links\":[") + 9; // the first link's '{'
  std::string own;
  for (std::size_t i = 0; i <= index; ++i) {
    own = own_members(doc, at, &at);
    ++at; // the ',' between links
  }
  return own;
}

/// Changes a field to a value it did not hold.
void perturb(std::uint64_t& v) { v += 1000; }
void perturb(std::uint32_t& v) { v += 1000; }
void perturb(double& v) { v += 0.25; }
void perturb(bool& v) { v = !v; }
void perturb(std::string& v) { v += "x"; }

std::string fabric_json(const FabricOptions& opts, const FabricResult& r) {
  std::ostringstream out;
  write_fabric_results_json(out, opts, r);
  return out.str();
}

TEST(FabricResultFields, EveryRowReachesEqualityDigestAndJson) {
  FabricOptions opts = small_options(LbMode::kConga);
  FabricFaultEvent ev;
  ev.kind = FabricFaultEvent::Kind::kKillSwitch;
  ev.target = opts.topology.spine_id(1);
  ev.cycle = 400;
  opts.faults.events.push_back(ev);
  const FabricResult base = FabricSimulator(opts).run();
  const std::uint64_t base_digest = fabric_result_digest(base);

  for (const auto& f : kFabricFields) {
    const std::string name = std::string(f.section) + "." + f.key;
    SCOPED_TRACE(name);
    FabricResult changed = base;
    std::visit([&](auto m) { perturb(changed.*m); }, f.member);

    std::string why;
    EXPECT_FALSE(same_fabric_results(base, changed, &why));
    EXPECT_EQ(why, "field '" + name + "' differs");
    EXPECT_NE(fabric_result_digest(changed), base_digest);
    const std::string members =
        section_members(fabric_json(opts, changed), f.section);
    std::visit(
        [&](auto m) {
          EXPECT_TRUE(has_member(members, entry(f.key, changed.*m)))
              << members;
        },
        f.member);
  }

  // One field of one link at a time: even a lone weight tells two
  // results apart.
  const std::size_t link = base.links.size() - 1;
  for (const auto& f : kFabricLinkFields) {
    const std::string name =
        "links[" + std::to_string(link) + "]." + f.key;
    SCOPED_TRACE(name);
    FabricResult changed = base;
    std::visit([&](auto m) { perturb(changed.links[link].*m); }, f.member);

    std::string why;
    EXPECT_FALSE(same_fabric_results(base, changed, &why));
    EXPECT_EQ(why, "field '" + name + "' differs");
    EXPECT_NE(fabric_result_digest(changed), base_digest);
    const std::string members =
        link_members(fabric_json(opts, changed), link);
    std::visit(
        [&](auto m) {
          EXPECT_TRUE(has_member(members, entry(f.key, changed.links[link].*m)))
              << members;
        },
        f.member);
  }
}

} // namespace
} // namespace mp5::fabric
