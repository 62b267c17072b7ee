// Fabric simulator: a leaf–spine Clos of MP5 switches with end-to-end
// load balancing (see DESIGN.md "Fabric simulation").
//
// One Mp5Simulator per switch, all externally clocked through the
// begin()/step()/finish() API so the fabric owns a single global cycle
// counter. Per cycle the fabric (a) applies due fault events, (b) injects
// due workload packets at their source leaf's host ports, (c) moves due
// link deliveries into the next switch's ingress source, and (d) steps
// every live switch once. Egressed packets come back through the
// per-switch egress sink, are routed (host delivery, spine downlink, or a
// leaf's LB-chosen uplink) and serialized onto a link: transmission
// starts at max(now+1, link busy_until) and the packet arrives
// latency + size/capacity cycles later — never sooner than now+2, which
// is what lets one pass per cycle over the switches be exact.
//
// Load balancing at the leaves:
//   * ecmp / wcmp — WcmpHasher over the flow 5-tuple (configurable salt
//     and field set); wcmp honors the topology's per-spine weights.
//   * flowlet     — every switch runs the paper's flowlet program (§4.4);
//     the leaf forwards on the program's `next_hop` output, so the path
//     choice is made *by switch state*, complete with the C1-reordering
//     consequences the paper measures.
//   * conga       — every switch runs the CONGA best-path program; the
//     fabric feeds the program's `util` input from its link-utilization
//     EWMAs (leaf-to-leaf path congestion, CONGA's piggybacked metric)
//     and forwards on the program's `best` output.
//
// Every random quantity derives from FabricOptions::seed, so a run is
// bit-reproducible: same options -> same FabricResult, field by field
// (same_fabric_results is the contract; tests enforce it).
//
// Packet conservation is an invariant, not a hope: every injected packet
// is eventually delivered at a host port, dropped with a recorded fate
// (source/destination dead, switch killed mid-flight, lost inside a
// switch), or still in flight when a truncated run ends. run() throws
// InvariantError if the ledger does not balance.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <variant>
#include <vector>

#include "common/seq_map.hpp"
#include "common/stats.hpp"
#include "fabric/topology.hpp"
#include "fabric/wcmp.hpp"
#include "fabric/workload.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/options.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"

namespace mp5::fabric {

enum class LbMode : std::uint8_t { kEcmp, kWcmp, kFlowlet, kConga };

LbMode parse_lb_mode(const std::string& name); // throws ConfigError
std::string lb_mode_name(LbMode mode);

/// Scheduled fabric-level fault: kill a whole switch (its in-flight
/// packets are dropped with fate `switch_killed` and its links go dead)
/// or a single directional link (traffic already on the wire still
/// arrives; nothing new is serialized onto it).
struct FabricFaultEvent {
  enum class Kind : std::uint8_t { kKillSwitch, kKillLink };
  Kind kind = Kind::kKillSwitch;
  Cycle cycle = 0;
  SwitchId target = 0; // kKillSwitch
  LinkId link = 0;     // kKillLink
};

struct FabricFaultPlan {
  std::vector<FabricFaultEvent> events;
  bool empty() const { return events.empty(); }
  void validate(const FabricTopology& topo) const; // throws ConfigError
};

struct FabricOptions {
  FabricTopology topology;
  LbMode lb = LbMode::kConga;
  FabricWorkloadConfig workload;

  // Per-switch MP5 knobs (every switch gets the same configuration; seeds
  // are derived per switch from `seed`).
  std::uint32_t pipelines = 4;
  std::size_t fifo_capacity = 0;
  std::uint32_t remap_period = 100;
  bool paranoid_checks = false;

  std::uint64_t seed = 1;
  /// ECMP/WCMP hash salt and field selection at the leaves.
  std::uint64_t salt = 0;
  HashAlg hash_alg = HashAlg::kFiveTuple;

  /// Link-utilization EWMA window in cycles: every window the fabric
  /// folds the bytes serialized per link into a 0..1000 utilization
  /// estimate — the `util` metric CONGA's best-path table consumes.
  std::uint32_t util_window = 256;

  /// Hard cap on fabric cycles; hitting it truncates the run (the result
  /// is marked `truncated` and undelivered packets count as in-flight).
  Cycle max_cycles = 50'000'000;

  FabricFaultPlan faults;

  /// Optional shared telemetry sink. Each switch exports its metrics
  /// under "fabric.<switch-name>." (its SimOptions::telemetry_prefix), so
  /// one registry holds the whole fabric without name collisions.
  telemetry::Telemetry* telemetry = nullptr;
};

struct FabricLinkResult {
  std::string name;          // "leaf0->spine1"
  SwitchId from = 0, to = 0;
  bool uplink = false;
  bool killed = false;
  double weight = 1.0;       // WCMP weight (uplinks; 1.0 for downlinks)
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  double busy_cycles = 0.0;  // cycles spent serializing
  double utilization = 0.0;  // busy_cycles / cycles_run, clamped to 1
  double peak_queue_cycles = 0.0; // worst serialization backlog seen
};

struct FabricSwitchResult {
  std::string name;
  bool killed = false;
  Cycle killed_at = 0;
  SimResult sim; // the switch's own MP5 result (C1 violations live here)
};

// The simulator counts straight into a FabricResult (its ledger), and
// every scalar below and every FabricLinkResult field has one row in
// kFabricFields / kFabricLinkFields (after the structs): equality, the
// digest and the results JSON all walk those tables, so a new field is one
// member plus one row (test_fabric fails to compile without the row).
struct FabricResult {
  // --- packet ledger (conservation: injected == delivered + dropped
  // --- + in_flight_end) ---
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_dead_source = 0;      // source leaf was dead
  std::uint64_t dropped_dead_destination = 0; // no live path / dest dead
  std::uint64_t dropped_switch_killed = 0;    // inside a killed switch
  std::uint64_t dropped_in_switch = 0;        // lost by a live switch
  std::uint64_t in_flight_end = 0;            // truncated runs only
  bool truncated = false;
  Cycle cycles_run = 0;

  // --- flows ---
  std::uint64_t flows_total = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;       // all packets accounted
  std::uint64_t flows_fully_delivered = 0; // all packets delivered
  std::uint64_t peak_concurrent_flows = 0;
  /// End-to-end packet reordering: deliveries whose in-flow index is
  /// below an already-delivered index of the same flow.
  std::uint64_t reordered_packets = 0;

  // --- flow completion time (fully delivered flows; cycles) ---
  std::uint64_t fct_count = 0;
  double fct_p50 = 0.0, fct_p90 = 0.0, fct_p99 = 0.0;
  double fct_mean = 0.0, fct_max = 0.0;

  // --- per-packet end-to-end latency (delivered packets; cycles) ---
  double latency_p50 = 0.0, latency_p90 = 0.0, latency_p99 = 0.0;

  // --- rates ---
  double throughput_pkts_per_cycle = 0.0; // delivered / cycles_run
  double offered_pkts_per_cycle = 0.0;    // injected / cycles_run
  double delivered_fraction = 0.0;        // delivered / injected

  // --- link utilization skew (uplinks) ---
  double uplink_util_max = 0.0;
  double uplink_util_mean = 0.0;
  double uplink_util_skew = 0.0; // max / mean (1.0 = perfectly balanced)

  std::vector<FabricLinkResult> links;      // indexed by LinkId
  std::vector<FabricSwitchResult> switches; // indexed by SwitchId

  std::uint64_t dropped_total() const {
    return dropped_dead_source + dropped_dead_destination +
           dropped_switch_killed + dropped_in_switch;
  }
  bool conserved() const {
    return injected == delivered + dropped_total() + in_flight_end;
  }
};

/// One field of a fabric result record: the results-JSON section it sits
/// in (a dotted path of nested objects; "links" for the per-link array),
/// its key there, and the member, of one of the record's field types
/// `Ts`.
template <typename Record, typename... Ts>
struct FabricField {
  using Member = std::variant<Ts Record::*...>;
  const char* section;
  const char* key;
  Member member;
};

/// FabricResult's scalars, in the results JSON's order.
inline constexpr FabricField<FabricResult, std::uint64_t, double, bool>
    kFabricFields[] = {
    {"totals", "injected", &FabricResult::injected},
    {"totals", "delivered", &FabricResult::delivered},
    {"totals.dropped", "dead_source", &FabricResult::dropped_dead_source},
    {"totals.dropped", "dead_destination",
     &FabricResult::dropped_dead_destination},
    {"totals.dropped", "switch_killed", &FabricResult::dropped_switch_killed},
    {"totals.dropped", "in_switch", &FabricResult::dropped_in_switch},
    {"totals", "in_flight_end", &FabricResult::in_flight_end},
    {"totals", "truncated", &FabricResult::truncated},
    {"totals", "cycles_run", &FabricResult::cycles_run},
    {"totals", "throughput_pkts_per_cycle",
     &FabricResult::throughput_pkts_per_cycle},
    {"totals", "offered_pkts_per_cycle", &FabricResult::offered_pkts_per_cycle},
    {"totals", "delivered_fraction", &FabricResult::delivered_fraction},
    {"flows", "total", &FabricResult::flows_total},
    {"flows", "started", &FabricResult::flows_started},
    {"flows", "completed", &FabricResult::flows_completed},
    {"flows", "fully_delivered", &FabricResult::flows_fully_delivered},
    {"flows", "peak_concurrent", &FabricResult::peak_concurrent_flows},
    {"flows", "reordered_packets", &FabricResult::reordered_packets},
    {"flows.fct", "count", &FabricResult::fct_count},
    {"flows.fct", "p50", &FabricResult::fct_p50},
    {"flows.fct", "p90", &FabricResult::fct_p90},
    {"flows.fct", "p99", &FabricResult::fct_p99},
    {"flows.fct", "mean", &FabricResult::fct_mean},
    {"flows.fct", "max", &FabricResult::fct_max},
    {"latency", "p50", &FabricResult::latency_p50},
    {"latency", "p90", &FabricResult::latency_p90},
    {"latency", "p99", &FabricResult::latency_p99},
    {"uplinks", "util_max", &FabricResult::uplink_util_max},
    {"uplinks", "util_mean", &FabricResult::uplink_util_mean},
    {"uplinks", "util_skew", &FabricResult::uplink_util_skew},
};

/// FabricLinkResult's fields, in the results JSON's order.
inline constexpr FabricField<FabricLinkResult, std::string, std::uint32_t,
                             bool, double, std::uint64_t>
    kFabricLinkFields[] = {
    {"links", "name", &FabricLinkResult::name},
    {"links", "from", &FabricLinkResult::from},
    {"links", "to", &FabricLinkResult::to},
    {"links", "uplink", &FabricLinkResult::uplink},
    {"links", "killed", &FabricLinkResult::killed},
    {"links", "weight", &FabricLinkResult::weight},
    {"links", "packets", &FabricLinkResult::packets},
    {"links", "bytes", &FabricLinkResult::bytes},
    {"links", "busy_cycles", &FabricLinkResult::busy_cycles},
    {"links", "utilization", &FabricLinkResult::utilization},
    {"links", "peak_queue_cycles", &FabricLinkResult::peak_queue_cycles},
};

/// Field-by-field equality — the fabric's bit-reproducibility contract.
/// On mismatch returns false and, when `why` is non-null, names the first
/// differing field by its results-JSON path ("totals.delivered",
/// "links[3].weight", "switches[1]: field 'steers' differs").
bool same_fabric_results(const FabricResult& a, const FabricResult& b,
                         std::string* why = nullptr);

/// FNV-1a digest of every field same_fabric_results() compares, in the
/// results JSON's order; each switch contributes its mp5::result_digest.
/// Equal digests mean field-by-field equal results (up to hash
/// collisions). The golden digests in the tests pin it.
std::uint64_t fabric_result_digest(const FabricResult& r);

class FabricSimulator {
public:
  explicit FabricSimulator(const FabricOptions& options);
  ~FabricSimulator();

  FabricSimulator(const FabricSimulator&) = delete;
  FabricSimulator& operator=(const FabricSimulator&) = delete;

  /// Run the whole fabric to completion (or max_cycles). One-shot.
  FabricResult run();

private:
  class SwitchSource;

  /// A packet in flight through the fabric (switch-internal hops are
  /// tracked by the per-switch simulators; this is the fabric's view).
  struct FabricPkt {
    std::uint64_t flow = 0;
    Cycle inject_cycle = 0;
    HostId src_host = 0;
    HostId dst_host = 0;
    std::uint32_t pkt_index = 0;
    std::uint32_t size_bytes = 64;
    std::uint16_t last_spine = 0; // spine index of the most recent uplink
    std::uint8_t hops = 0;        // links crossed so far
  };

  struct SwitchCtx {
    std::unique_ptr<Mp5Simulator> sim;
    std::unique_ptr<SwitchSource> source;
    /// Sub-simulator seq -> fabric packet id, for every packet currently
    /// inside the switch. Seq numbers are assigned in admission order, so
    /// the id is simply the source's consumed() count at admission. Flat
    /// (common/seq_map.hpp): the per-packet churn allocates nothing.
    SeqMap<std::uint32_t> inflight;
    /// Cleared by kill_switch, which also finishes the switch into its
    /// result_.switches entry; finalize() finishes the live ones.
    bool alive = true;
  };

  /// Link state the result does not hold; the link's counters accumulate
  /// in result_.links.
  struct LinkCtx {
    double busy_until = 0.0;
    std::uint64_t window_bytes = 0;
    std::uint32_t util = 0; // EWMA, 0..1000 (1000 once killed)
    bool alive = true;
  };

  struct Delivery {
    double time = 0.0;
    std::uint64_t order = 0; // global transmit counter: deterministic ties
    LinkId link = 0;
    std::uint32_t pkt = 0;
  };
  struct LaterDelivery {
    bool operator()(const Delivery& a, const Delivery& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };

  struct FlowRec {
    Cycle first_inject = 0;
    Cycle last_deliver = 0;
    std::uint32_t total = 0; // 0 until the first packet is injected
    std::uint32_t accounted = 0;
    std::uint32_t delivered = 0;
    std::uint32_t max_idx_plus1 = 0; // highest delivered index + 1
  };

  // -- lifecycle --
  std::uint32_t alloc_pkt(const FabricPacketEvent& ev, Cycle now);
  void release_pkt(std::uint32_t pkt);
  void inject(const FabricPacketEvent& ev, Cycle now);
  void deliver(const Delivery& d, Cycle now);
  void on_egress(SwitchId sw, EgressRecord&& rec);
  void route(SwitchId sw, std::uint32_t pkt,
             const std::vector<Value>& headers, Cycle now);
  void transmit(LinkId link, std::uint32_t pkt, Cycle now);
  void deliver_to_host(std::uint32_t pkt, Cycle now);
  void drop(std::uint32_t pkt, std::uint64_t& counter, Cycle now);
  void push_into_switch(SwitchId sw, std::uint32_t pkt, double time,
                        std::uint32_t port, Cycle now);
  std::vector<Value> make_fields(SwitchId sw, const FabricPkt& fp,
                                 Cycle now);
  std::optional<std::uint32_t> choose_spine(SwitchId leaf,
                                            const FabricPkt& fp,
                                            const std::vector<Value>& headers);
  bool spine_usable(SwitchId leaf, std::uint32_t spine_index) const;
  std::uint32_t path_util(SwitchId leaf, std::uint32_t spine_index,
                          SwitchId other_leaf) const;

  // -- accounting --
  void account_terminal(std::uint64_t flow, std::uint32_t pkt_index,
                        bool was_delivered, Cycle now);

  // -- faults / utilization --
  void apply_fault(const FabricFaultEvent& ev, Cycle now);
  void kill_switch(SwitchId sw, Cycle now);
  void kill_link(LinkId link);
  void rebuild_leaf_weights(SwitchId leaf);
  void roll_util_until(Cycle cycle);

  void finalize(Cycle end, bool truncated);

  FabricOptions opts_;
  FabricTopology topo_;
  std::unique_ptr<Mp5Program> program_;
  std::size_t num_fields_ = 0;
  // Header slots: for conga {dst, util, path_id, best}; for the other
  // modes the flowlet program's {sport, dport, arrival, next_hop}.
  ir::Slot slot_a_ = 0, slot_b_ = 0, slot_c_ = 0, slot_out_ = 0;

  std::vector<SwitchCtx> switches_;
  std::vector<LinkCtx> links_;
  std::vector<WcmpHasher> hashers_;     // one per leaf (ecmp/wcmp)
  std::vector<bool> leaf_has_path_;     // any usable uplink left?
  std::vector<double> base_weights_;    // per-spine, before fault masking
  std::vector<std::uint64_t> probe_rr_; // CONGA path-probe round robin
  std::vector<FabricFaultEvent> faults_; // sorted by cycle
  std::size_t fault_cursor_ = 0;

  std::priority_queue<Delivery, std::vector<Delivery>, LaterDelivery> heap_;
  std::uint64_t transmit_order_ = 0;

  std::vector<FabricPkt> pkts_;
  std::vector<std::uint32_t> free_pkts_;

  std::vector<FlowRec> flows_;
  std::uint64_t active_flows_ = 0;

  Cycle next_util_roll_ = 0;

  /// The ledger: every counter of the run accumulates here (in_flight_end
  /// counts the packets alive so far), and finalize() fills in the
  /// derived statistics.
  FabricResult result_;
  std::vector<double> fct_samples_;
  /// One entry per delivered packet (4 B each — ~40 MB per 10M packets),
  /// sorted once at finalize for exact rather than bucketed percentiles:
  /// fabric-scale latency tails reach millions of cycles, far past any
  /// practical fixed histogram range.
  std::vector<std::uint32_t> latency_samples_;

  bool started_ = false;
};

} // namespace mp5::fabric
