#include "fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "apps/programs.hpp"
#include "banzai/machine.hpp"
#include "common/error.hpp"
#include "common/hashing.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "trace/trace_source.hpp"

namespace mp5::fabric {

LbMode parse_lb_mode(const std::string& name) {
  if (name == "ecmp") return LbMode::kEcmp;
  if (name == "wcmp") return LbMode::kWcmp;
  if (name == "flowlet") return LbMode::kFlowlet;
  if (name == "conga") return LbMode::kConga;
  throw ConfigError("fabric: unknown load-balancing mode '" + name +
                    "' (want ecmp | wcmp | flowlet | conga)");
}

std::string lb_mode_name(LbMode mode) {
  switch (mode) {
    case LbMode::kEcmp: return "ecmp";
    case LbMode::kWcmp: return "wcmp";
    case LbMode::kFlowlet: return "flowlet";
    case LbMode::kConga: return "conga";
  }
  return "?";
}

void FabricFaultPlan::validate(const FabricTopology& topo) const {
  for (const FabricFaultEvent& ev : events) {
    if (ev.kind == FabricFaultEvent::Kind::kKillSwitch) {
      if (ev.target >= topo.num_switches()) {
        throw ConfigError("fabric fault: no such switch id " +
                          std::to_string(ev.target));
      }
    } else {
      if (ev.link >= topo.num_links()) {
        throw ConfigError("fabric fault: no such link id " +
                          std::to_string(ev.link));
      }
    }
  }
}

namespace {

/// Derived per-flow transport ports: stable across hops and runs, shared
/// by the ECMP tuple and the flowlet program's flow identity.
std::uint64_t flow_ports(std::uint64_t flow) { return mix64(flow + 0x5eed); }

} // namespace

// ---------------------------------------------------------------------------
// SwitchSource: the per-switch ingress queue, fed by the fabric each cycle
// and fully drained by the switch's step() in the same cycle. advance()
// records seq -> fabric-packet-id in the switch tracker (the simulator
// assigns seq numbers in consumption order, so seq == consumed() count at
// admission).
// ---------------------------------------------------------------------------

class FabricSimulator::SwitchSource final : public TraceSource {
public:
  SwitchSource(FabricSimulator* fab, SwitchId sw) : fab_(fab), sw_(sw) {}

  void push(TraceItem&& item, std::uint32_t pkt) {
    pending_.push_back(Pending{std::move(item), push_order_++, pkt});
  }

  /// Sort this cycle's pushes into admission order — (time, port, push
  /// order) — before the switch steps.
  void seal() {
    if (head_ == pending_.size()) return;
    std::sort(pending_.begin() + static_cast<std::ptrdiff_t>(head_),
              pending_.end(), [](const Pending& a, const Pending& b) {
                if (a.item.arrival_time != b.item.arrival_time) {
                  return a.item.arrival_time < b.item.arrival_time;
                }
                if (a.item.port != b.item.port) {
                  return a.item.port < b.item.port;
                }
                return a.order < b.order;
              });
  }

  const TraceItem* peek() override {
    return head_ < pending_.size() ? &pending_[head_].item : nullptr;
  }

  void advance() override {
    fab_->switches_[sw_].inflight.insert_or_assign(consumed_,
                                                   pending_[head_].pkt);
    ++head_;
    ++consumed_;
    if (head_ == pending_.size()) {
      pending_.clear();
      head_ = 0;
    }
  }

  std::uint64_t consumed() const override { return consumed_; }

  void skip_to(std::uint64_t) override {
    throw Error("fabric SwitchSource does not support skip_to");
  }

  std::optional<std::uint64_t> size() const override { return std::nullopt; }

  /// Remove and return every not-yet-admitted fabric packet id (used when
  /// the switch is killed before consuming this cycle's pushes).
  std::vector<std::uint32_t> drain_pending() {
    std::vector<std::uint32_t> out;
    for (std::size_t i = head_; i < pending_.size(); ++i) {
      out.push_back(pending_[i].pkt);
    }
    pending_.clear();
    head_ = 0;
    return out;
  }

private:
  struct Pending {
    TraceItem item;
    std::uint64_t order = 0;
    std::uint32_t pkt = 0;
  };

  FabricSimulator* fab_;
  SwitchId sw_;
  std::vector<Pending> pending_;
  std::size_t head_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t push_order_ = 0;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

FabricSimulator::FabricSimulator(const FabricOptions& options)
    : opts_(options), topo_(options.topology) {
  topo_.validate();
  opts_.workload.validate();
  opts_.faults.validate(topo_);
  if (opts_.util_window == 0) {
    throw ConfigError("fabric: util_window must be > 0");
  }
  if (opts_.max_cycles == 0) {
    throw ConfigError("fabric: max_cycles must be > 0");
  }

  // Compile the shared per-switch program once. CONGA runs the paper's
  // best-path app; every other mode runs the flowlet app (its next_hop
  // output is the flowlet path choice; ecmp/wcmp ignore the output but
  // still exercise the switch with a real stateful program).
  const apps::AppSpec app =
      opts_.lb == LbMode::kConga ? apps::conga_app() : apps::flowlet_app();
  const auto ast = domino::parse(app.source);
  num_fields_ = ast.fields.size();
  const auto compiled =
      domino::compile(ast, banzai::MachineSpec{}, /*reserve_stages=*/1);
  program_ = std::make_unique<Mp5Program>(transform(compiled.pvsm));
  if (opts_.lb == LbMode::kConga) {
    slot_a_ = program_->pvsm.slot_of("dst");
    slot_b_ = program_->pvsm.slot_of("util");
    slot_c_ = program_->pvsm.slot_of("path_id");
    slot_out_ = program_->pvsm.slot_of("best");
  } else {
    slot_a_ = program_->pvsm.slot_of("sport");
    slot_b_ = program_->pvsm.slot_of("dport");
    slot_c_ = program_->pvsm.slot_of("arrival");
    slot_out_ = program_->pvsm.slot_of("next_hop");
  }

  base_weights_ = opts_.lb == LbMode::kWcmp && !topo_.spine_weights.empty()
                      ? topo_.spine_weights
                      : std::vector<double>(topo_.spines, 1.0);
  if (opts_.lb == LbMode::kEcmp || opts_.lb == LbMode::kWcmp) {
    hashers_.reserve(topo_.leaves);
    for (SwitchId l = 0; l < topo_.leaves; ++l) {
      hashers_.emplace_back(opts_.hash_alg, opts_.salt, base_weights_);
    }
  }
  leaf_has_path_.assign(topo_.leaves, true);
  probe_rr_.assign(topo_.leaves, 0);
  links_.resize(topo_.num_links());
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    const bool up = topo_.is_uplink(l);
    result_.links.push_back(
        {.name = topo_.link_name(l), .from = topo_.link_from(l),
         .to = topo_.link_to(l), .uplink = up,
         .weight = up ? base_weights_[l % topo_.spines] : 1.0});
  }

  switches_.resize(topo_.num_switches());
  result_.switches.resize(topo_.num_switches());
  for (SwitchId s = 0; s < topo_.num_switches(); ++s) {
    result_.switches[s].name = topo_.switch_name(s);
    SwitchCtx& ctx = switches_[s];
    ctx.source = std::make_unique<SwitchSource>(this, s);
    SimOptions so;
    so.pipelines = opts_.pipelines;
    so.fifo_capacity = opts_.fifo_capacity;
    so.remap_period = opts_.remap_period;
    so.paranoid_checks = opts_.paranoid_checks;
    so.seed = mix64(opts_.seed ^ (0xfab00000ULL + s));
    so.max_cycles = opts_.max_cycles + 2;
    so.telemetry = opts_.telemetry;
    so.telemetry_prefix = "fabric." + topo_.switch_name(s) + ".";
    so.egress_sink = [this, s](EgressRecord&& rec) {
      on_egress(s, std::move(rec));
    };
    ctx.sim = std::make_unique<Mp5Simulator>(*program_, so);
  }

  faults_ = opts_.faults.events;
  std::stable_sort(faults_.begin(), faults_.end(),
                   [](const FabricFaultEvent& a, const FabricFaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
}

FabricSimulator::~FabricSimulator() = default;

// ---------------------------------------------------------------------------
// Packet lifecycle
// ---------------------------------------------------------------------------

std::uint32_t FabricSimulator::alloc_pkt(const FabricPacketEvent& ev,
                                         Cycle now) {
  std::uint32_t id;
  if (!free_pkts_.empty()) {
    id = free_pkts_.back();
    free_pkts_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(pkts_.size());
    pkts_.emplace_back();
  }
  FabricPkt& fp = pkts_[id];
  fp = FabricPkt{};
  fp.flow = ev.flow;
  fp.inject_cycle = now;
  fp.src_host = ev.src_host;
  fp.dst_host = ev.dst_host;
  fp.pkt_index = ev.pkt_index;
  fp.size_bytes = ev.size_bytes;
  ++result_.in_flight_end;
  return id;
}

void FabricSimulator::release_pkt(std::uint32_t pkt) {
  free_pkts_.push_back(pkt);
  --result_.in_flight_end;
}

void FabricSimulator::account_terminal(std::uint64_t flow,
                                       std::uint32_t pkt_index,
                                       bool was_delivered, Cycle now) {
  FlowRec& fr = flows_[flow];
  ++fr.accounted;
  if (was_delivered) {
    ++fr.delivered;
    fr.last_deliver = now;
    if (fr.max_idx_plus1 != 0 && pkt_index + 1 < fr.max_idx_plus1) {
      ++result_.reordered_packets;
    } else {
      fr.max_idx_plus1 = pkt_index + 1;
    }
  }
  if (fr.accounted == fr.total) {
    --active_flows_;
    ++result_.flows_completed;
    if (fr.delivered == fr.total) {
      ++result_.flows_fully_delivered;
      fct_samples_.push_back(
          static_cast<double>(fr.last_deliver - fr.first_inject + 1));
    }
  }
}

void FabricSimulator::drop(std::uint32_t pkt, std::uint64_t& counter,
                           Cycle now) {
  ++counter;
  account_terminal(pkts_[pkt].flow, pkts_[pkt].pkt_index, false, now);
  release_pkt(pkt);
}

void FabricSimulator::inject(const FabricPacketEvent& ev, Cycle now) {
  ++result_.injected;
  FlowRec& fr = flows_[ev.flow];
  if (fr.total == 0) {
    fr.total = ev.pkt_count;
    fr.first_inject = now;
    ++result_.flows_started;
    ++active_flows_;
    result_.peak_concurrent_flows =
        std::max(result_.peak_concurrent_flows, active_flows_);
  }
  const SwitchId leaf = topo_.leaf_of_host(ev.src_host);
  if (!switches_[leaf].alive) {
    ++result_.dropped_dead_source;
    account_terminal(ev.flow, ev.pkt_index, false, now);
    return;
  }
  const std::uint32_t pkt = alloc_pkt(ev, now);
  push_into_switch(leaf, pkt, ev.time, topo_.host_port(ev.src_host), now);
}

void FabricSimulator::push_into_switch(SwitchId sw, std::uint32_t pkt,
                                       double time, std::uint32_t port,
                                       Cycle now) {
  TraceItem item;
  item.arrival_time = time;
  item.port = port;
  item.size_bytes = pkts_[pkt].size_bytes;
  item.flow = pkts_[pkt].flow;
  item.fields = make_fields(sw, pkts_[pkt], now);
  switches_[sw].source->push(std::move(item), pkt);
}

std::vector<Value> FabricSimulator::make_fields(SwitchId sw,
                                                const FabricPkt& fp,
                                                Cycle now) {
  std::vector<Value> f(num_fields_, 0);
  if (opts_.lb == LbMode::kConga) {
    const SwitchId dst_leaf = topo_.leaf_of_host(fp.dst_host);
    const SwitchId src_leaf = topo_.leaf_of_host(fp.src_host);
    std::uint32_t key, path, util;
    if (topo_.is_spine(sw)) {
      // Transit at a spine: the spine's table learns its own downlink
      // congestion (unused for routing but keeps every switch stateful).
      path = topo_.spine_index(sw);
      key = dst_leaf;
      util = links_[topo_.downlink(path, dst_leaf)].util;
    } else if (fp.hops == 0) {
      // Fresh at the source leaf: probe paths round-robin, feeding the
      // best-path table the probed path's current congestion metric
      // (max of uplink and downlink utilization — CONGA's path metric,
      // here read from the fabric's own link EWMAs).
      key = dst_leaf;
      path = static_cast<std::uint32_t>(probe_rr_[sw]++ % topo_.spines);
      util = path_util(sw, path, dst_leaf);
    } else {
      // Arriving at the destination leaf: piggybacked feedback about the
      // path back to the sender through the spine the packet crossed —
      // CONGA's leaf-to-leaf feedback loop.
      key = src_leaf;
      path = fp.last_spine;
      util = path_util(sw, path, src_leaf);
    }
    f[static_cast<std::size_t>(slot_a_)] = static_cast<Value>(key);
    f[static_cast<std::size_t>(slot_b_)] = static_cast<Value>(util);
    f[static_cast<std::size_t>(slot_c_)] = static_cast<Value>(path);
  } else {
    const std::uint64_t h = flow_ports(fp.flow);
    f[static_cast<std::size_t>(slot_a_)] = static_cast<Value>(h & 0xffff);
    f[static_cast<std::size_t>(slot_b_)] =
        static_cast<Value>((h >> 16) & 0xffff);
    f[static_cast<std::size_t>(slot_c_)] = static_cast<Value>(now);
  }
  return f;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

bool FabricSimulator::spine_usable(SwitchId leaf,
                                   std::uint32_t spine_index) const {
  return switches_[topo_.spine_id(spine_index)].alive &&
         links_[topo_.uplink(leaf, spine_index)].alive;
}

std::uint32_t FabricSimulator::path_util(SwitchId leaf,
                                         std::uint32_t spine_index,
                                         SwitchId other_leaf) const {
  return std::max(links_[topo_.uplink(leaf, spine_index)].util,
                  links_[topo_.downlink(spine_index, other_leaf)].util);
}

std::optional<std::uint32_t> FabricSimulator::choose_spine(
    SwitchId leaf, const FabricPkt& fp, const std::vector<Value>& headers) {
  const std::uint32_t spines = topo_.spines;
  std::uint32_t start = 0;
  switch (opts_.lb) {
    case LbMode::kEcmp:
    case LbMode::kWcmp: {
      if (!leaf_has_path_[leaf]) return std::nullopt;
      const std::uint64_t h = flow_ports(fp.flow);
      FiveTuple t;
      t.src = fp.src_host;
      t.dst = fp.dst_host;
      t.sport = static_cast<std::uint16_t>(h & 0xffff);
      t.dport = static_cast<std::uint16_t>((h >> 16) & 0xffff);
      t.proto = 6;
      start = hashers_[leaf].pick(t);
      break;
    }
    case LbMode::kFlowlet:
    case LbMode::kConga:
      // The switch program chose the path; the fabric just obeys its
      // output header (falling forward to the next live spine on faults).
      start = static_cast<std::uint32_t>(floor_mod(
          headers[static_cast<std::size_t>(slot_out_)],
          static_cast<Value>(spines)));
      break;
  }
  for (std::uint32_t d = 0; d < spines; ++d) {
    const std::uint32_t i = (start + d) % spines;
    if (spine_usable(leaf, i)) return i;
  }
  return std::nullopt;
}

void FabricSimulator::on_egress(SwitchId sw, EgressRecord&& rec) {
  SwitchCtx& ctx = switches_[sw];
  const std::uint32_t* tracked = ctx.inflight.find(rec.seq);
  if (tracked == nullptr) {
    throw InvariantError("fabric-egress-tracked", rec.egress_cycle,
                         topo_.switch_name(sw) + " egressed unknown seq " +
                             std::to_string(rec.seq));
  }
  const std::uint32_t pkt = *tracked;
  ctx.inflight.erase(rec.seq);
  route(sw, pkt, rec.headers, rec.egress_cycle);
}

void FabricSimulator::route(SwitchId sw, std::uint32_t pkt,
                            const std::vector<Value>& headers, Cycle now) {
  FabricPkt& fp = pkts_[pkt];
  const SwitchId dst_leaf = topo_.leaf_of_host(fp.dst_host);
  if (topo_.is_spine(sw)) {
    const std::uint32_t si = topo_.spine_index(sw);
    const LinkId link = topo_.downlink(si, dst_leaf);
    if (!switches_[dst_leaf].alive || !links_[link].alive) {
      drop(pkt, result_.dropped_dead_destination, now);
      return;
    }
    transmit(link, pkt, now);
    return;
  }
  if (dst_leaf == sw) {
    deliver_to_host(pkt, now);
    return;
  }
  const auto spine = choose_spine(sw, fp, headers);
  if (!spine) {
    drop(pkt, result_.dropped_dead_destination, now);
    return;
  }
  transmit(topo_.uplink(sw, *spine), pkt, now);
}

void FabricSimulator::transmit(LinkId link, std::uint32_t pkt, Cycle now) {
  LinkCtx& L = links_[link];
  FabricLinkResult& lr = result_.links[link];
  FabricPkt& fp = pkts_[pkt];
  // Serialization starts next cycle at the earliest, after whatever is
  // already on the wire; propagation (>= 1 cycle) comes on top, so the
  // packet can never enter the next switch before now + 2 — the property
  // the single-pass-per-cycle fabric walk rests on.
  const double earliest = static_cast<double>(now + 1);
  const double start = std::max(earliest, L.busy_until);
  const double tx =
      static_cast<double>(fp.size_bytes) / topo_.link_bytes_per_cycle;
  L.busy_until = start + tx;
  L.window_bytes += fp.size_bytes;
  lr.busy_cycles += tx;
  ++lr.packets;
  lr.bytes += fp.size_bytes;
  lr.peak_queue_cycles = std::max(lr.peak_queue_cycles, start - earliest);
  if (topo_.is_uplink(link)) {
    fp.last_spine = static_cast<std::uint16_t>(link % topo_.spines);
  }
  ++fp.hops;
  heap_.push(Delivery{start + tx + static_cast<double>(topo_.link_latency),
                      transmit_order_++, link, pkt});
}

void FabricSimulator::deliver(const Delivery& d, Cycle now) {
  const SwitchId dst = topo_.link_to(d.link);
  if (!switches_[dst].alive) {
    drop(d.pkt, result_.dropped_dead_destination, now);
    return;
  }
  push_into_switch(dst, d.pkt, d.time, topo_.ingress_port(d.link), now);
}

void FabricSimulator::deliver_to_host(std::uint32_t pkt, Cycle now) {
  const FabricPkt& fp = pkts_[pkt];
  ++result_.delivered;
  latency_samples_.push_back(
      static_cast<std::uint32_t>(std::min<Cycle>(now - fp.inject_cycle,
                                                 0xffffffffu)));
  account_terminal(fp.flow, fp.pkt_index, true, now);
  release_pkt(pkt);
}

// ---------------------------------------------------------------------------
// Faults and link utilization
// ---------------------------------------------------------------------------

void FabricSimulator::apply_fault(const FabricFaultEvent& ev, Cycle now) {
  if (ev.kind == FabricFaultEvent::Kind::kKillSwitch) {
    kill_switch(ev.target, now);
  } else {
    kill_link(ev.link);
  }
}

void FabricSimulator::kill_link(LinkId link) {
  LinkCtx& L = links_[link];
  if (!L.alive) return;
  L.alive = false;
  result_.links[link].killed = true;
  L.util = 1000; // looks saturated forever: CONGA steers away on its own
  L.window_bytes = 0;
  if (topo_.is_uplink(link)) rebuild_leaf_weights(topo_.link_from(link));
}

void FabricSimulator::kill_switch(SwitchId sw, Cycle now) {
  SwitchCtx& ctx = switches_[sw];
  if (!ctx.alive) return;
  ctx.alive = false;
  FabricSwitchResult& sr = result_.switches[sw];
  sr.killed = true;
  sr.killed_at = now;
  sr.sim = ctx.sim->finish(now);
  ctx.inflight.for_each([&](SeqNo, std::uint32_t pkt) {
    drop(pkt, result_.dropped_switch_killed, now);
  });
  ctx.inflight.clear();
  for (const std::uint32_t pkt : ctx.source->drain_pending()) {
    drop(pkt, result_.dropped_switch_killed, now);
  }
  if (topo_.is_spine(sw)) {
    const std::uint32_t si = topo_.spine_index(sw);
    for (SwitchId l = 0; l < topo_.leaves; ++l) {
      kill_link(topo_.uplink(l, si));
      kill_link(topo_.downlink(si, l));
    }
  } else {
    for (std::uint32_t si = 0; si < topo_.spines; ++si) {
      kill_link(topo_.uplink(sw, si));
      kill_link(topo_.downlink(si, sw));
    }
  }
}

void FabricSimulator::rebuild_leaf_weights(SwitchId leaf) {
  if (!switches_[leaf].alive) {
    leaf_has_path_[leaf] = false;
    return;
  }
  std::vector<double> w = base_weights_;
  bool any = false;
  for (std::uint32_t i = 0; i < topo_.spines; ++i) {
    if (!spine_usable(leaf, i)) {
      w[i] = 0.0;
    } else if (w[i] > 0.0) {
      any = true;
    }
  }
  leaf_has_path_[leaf] = any;
  if (any && !hashers_.empty()) hashers_[leaf].set_weights(std::move(w));
}

void FabricSimulator::roll_util_until(Cycle cycle) {
  while (next_util_roll_ <= cycle) {
    const double cap =
        static_cast<double>(opts_.util_window) * topo_.link_bytes_per_cycle;
    for (LinkCtx& L : links_) {
      if (!L.alive) continue;
      const auto inst = static_cast<std::uint32_t>(std::min(
          1000.0, 1000.0 * static_cast<double>(L.window_bytes) / cap));
      L.util = (3 * L.util + inst) / 4; // EWMA: responsive yet smooth
      L.window_bytes = 0;
    }
    next_util_roll_ += opts_.util_window;
  }
}

// ---------------------------------------------------------------------------
// The fabric clock
// ---------------------------------------------------------------------------

FabricResult FabricSimulator::run() {
  if (started_) throw Error("FabricSimulator::run may only be called once");
  started_ = true;

  FabricWorkload wl(opts_.workload, topo_.num_hosts());
  flows_.assign(opts_.workload.flows, FlowRec{});
  for (SwitchCtx& ctx : switches_) ctx.sim->begin(*ctx.source);
  next_util_roll_ = opts_.util_window;

  Cycle now = 0;
  bool truncated = false;
  Cycle end = 0;
  while (true) {
    if (now >= opts_.max_cycles) {
      truncated = true;
      end = now;
      break;
    }
    roll_util_until(now);

    // (1) fabric fault events due this cycle.
    while (fault_cursor_ < faults_.size() &&
           faults_[fault_cursor_].cycle <= now) {
      apply_fault(faults_[fault_cursor_], now);
      ++fault_cursor_;
    }

    // (2) workload injections due this cycle.
    while (const FabricPacketEvent* ev = wl.peek()) {
      if (ev->time >= static_cast<double>(now + 1)) break;
      inject(*ev, now);
      wl.advance();
    }

    // (3) link deliveries due this cycle (transmitted no later than
    // now - 2, so nothing below can add a delivery for this cycle).
    while (!heap_.empty() &&
           heap_.top().time < static_cast<double>(now + 1)) {
      const Delivery d = heap_.top();
      heap_.pop();
      deliver(d, now);
    }

    // (4) step every live switch once. Egress sinks fire from inside
    // step() and feed the delivery heap for cycle >= now + 2.
    bool any_work = false;
    for (SwitchCtx& ctx : switches_) {
      if (!ctx.alive) continue;
      ctx.source->seal();
      ctx.sim->step(now);
      if (ctx.sim->has_work()) any_work = true;
    }

    // (5) advance the clock; when every switch is drained, jump straight
    // to the next fabric event (never past a pending fault).
    if (!any_work) {
      double next = std::numeric_limits<double>::infinity();
      if (const FabricPacketEvent* ev = wl.peek()) {
        next = std::min(next, ev->time);
      }
      if (!heap_.empty()) next = std::min(next, heap_.top().time);
      const bool faults_left = fault_cursor_ < faults_.size();
      if (!std::isfinite(next) && !faults_left) {
        end = now + 1;
        break;
      }
      Cycle target = std::isfinite(next)
                         ? std::max(now + 1, static_cast<Cycle>(next))
                         : std::max(now + 1, faults_[fault_cursor_].cycle);
      if (faults_left) {
        target = std::min(target,
                          std::max(now + 1, faults_[fault_cursor_].cycle));
      }
      now = target;
    } else {
      ++now;
    }
  }
  finalize(end, truncated);
  return std::move(result_);
}

void FabricSimulator::finalize(Cycle end, bool truncated) {
  FabricResult& r = result_;
  for (SwitchId s = 0; s < static_cast<SwitchId>(switches_.size()); ++s) {
    SwitchCtx& ctx = switches_[s];
    if (ctx.alive) r.switches[s].sim = ctx.sim->finish(end);
    if (!truncated) {
      // A completed run has no in-flight packets, so whatever a live
      // switch still maps was silently lost inside it (bounded-FIFO data
      // drops, starvation-guard drops).
      ctx.inflight.for_each([&](SeqNo, std::uint32_t pkt) {
        drop(pkt, r.dropped_in_switch, end);
      });
      ctx.inflight.clear();
      for (const std::uint32_t pkt : ctx.source->drain_pending()) {
        drop(pkt, r.dropped_in_switch, end);
      }
    }
  }

  r.cycles_run = end;
  r.truncated = truncated;
  r.flows_total = opts_.workload.flows;

  r.fct_count = fct_samples_.size();
  if (!fct_samples_.empty()) {
    std::sort(fct_samples_.begin(), fct_samples_.end());
    r.fct_p50 = sorted_percentile(fct_samples_, 0.50);
    r.fct_p90 = sorted_percentile(fct_samples_, 0.90);
    r.fct_p99 = sorted_percentile(fct_samples_, 0.99);
    double sum = 0.0;
    for (const double x : fct_samples_) sum += x;
    r.fct_mean = sum / static_cast<double>(fct_samples_.size());
    r.fct_max = fct_samples_.back();
  }
  if (!latency_samples_.empty()) {
    std::sort(latency_samples_.begin(), latency_samples_.end());
    r.latency_p50 = sorted_percentile(latency_samples_, 0.50);
    r.latency_p90 = sorted_percentile(latency_samples_, 0.90);
    r.latency_p99 = sorted_percentile(latency_samples_, 0.99);
  }

  if (end > 0) {
    r.throughput_pkts_per_cycle =
        static_cast<double>(r.delivered) / static_cast<double>(end);
    r.offered_pkts_per_cycle =
        static_cast<double>(r.injected) / static_cast<double>(end);
  }
  if (r.injected > 0) {
    r.delivered_fraction =
        static_cast<double>(r.delivered) / static_cast<double>(r.injected);
  }

  double up_sum = 0.0;
  for (FabricLinkResult& lr : r.links) {
    lr.utilization =
        end > 0 ? std::min(1.0, lr.busy_cycles / static_cast<double>(end))
                : 0.0;
    if (lr.uplink) {
      up_sum += lr.utilization;
      r.uplink_util_max = std::max(r.uplink_util_max, lr.utilization);
    }
  }
  const std::uint32_t uplinks = topo_.leaves * topo_.spines;
  r.uplink_util_mean = up_sum / static_cast<double>(uplinks);
  r.uplink_util_skew =
      r.uplink_util_mean > 0.0 ? r.uplink_util_max / r.uplink_util_mean : 0.0;

  if (!r.conserved()) {
    throw InvariantError(
        "fabric-conservation", end,
        "packet ledger does not balance: injected=" +
            std::to_string(r.injected) + " delivered=" +
            std::to_string(r.delivered) + " dropped=" +
            std::to_string(r.dropped_total()) + " in_flight=" +
            std::to_string(r.in_flight_end));
  }
}

} // namespace mp5::fabric
