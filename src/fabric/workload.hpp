// Fabric-level traffic synthesis: millions of concurrent flows between
// hosts, streamed in time order with O(active flows) memory.
//
// Flow model (every quantity drawn from the run seed, so the stream is
// bit-reproducible):
//   * births   — Poisson process at `flow_rate` flows/cycle (exponential
//                interarrivals);
//   * size     — Zipf(zipf_exponent) packet count in
//                [1, max_flow_packets] (heavy-tailed mice/elephants);
//   * lifetime — exponential with mean `mean_lifetime` cycles; the flow's
//                packets are spread across it in bursts of `burst_size`
//                packets `burst_spacing` cycles apart, so a flow is a
//                sequence of flowlets (bursts separated by idle gaps far
//                exceeding the flowlet IPG) and stays concurrent with the
//                ~flow_rate × mean_lifetime flows born around it;
//   * endpoints — src/dst hosts uniform, src != dst.
//
// Every per-flow quantity is a pure function of (seed, flow id) — the
// SyntheticTraceSource recipe — so the generator is resumable: skip_to(n)
// replays the first n emissions at generator speed without touching a
// simulator. Emission order is (time, flow id), deterministic.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "fabric/topology.hpp"

namespace mp5::fabric {

struct FabricWorkloadConfig {
  /// Total flows to generate over the run.
  std::uint64_t flows = 20'000;
  /// Mean flow births per cycle (Poisson arrivals).
  double flow_rate = 1.0;
  /// Mean flow lifetime in cycles (exponential). Steady-state concurrent
  /// flows ≈ flow_rate × mean_lifetime.
  double mean_lifetime = 4'000.0;
  /// Packet count per flow: Zipf over [1, max_flow_packets].
  std::uint32_t max_flow_packets = 16;
  double zipf_exponent = 1.2;
  /// Packets per burst (flowlet) and intra-burst spacing in cycles.
  std::uint32_t burst_size = 4;
  double burst_spacing = 2.0;
  std::uint32_t packet_bytes = 64;
  std::uint64_t seed = 1;

  void validate() const; // throws ConfigError
};

/// Expected packets per flow under the config's Zipf size distribution
/// (for sizing host load: packet rate = flow_rate × mean).
double zipf_mean_packets(std::uint32_t max_flow_packets,
                         double zipf_exponent);

struct FabricPacketEvent {
  double time = 0.0;
  std::uint64_t flow = 0;       // dense id in [0, config.flows)
  std::uint32_t pkt_index = 0;  // position within the flow
  std::uint32_t pkt_count = 0;  // the flow's total packet count
  HostId src_host = 0;
  HostId dst_host = 0;
  std::uint32_t size_bytes = 64;
};

class FabricWorkload {
public:
  FabricWorkload(const FabricWorkloadConfig& config, std::uint32_t num_hosts);

  /// Next event in (time, flow) order, nullptr when exhausted. Valid
  /// until the next advance().
  const FabricPacketEvent* peek();
  void advance();

  /// Reposition so that emitted() == n (forward only): replays the
  /// intervening events at generator speed, no simulator required.
  void skip_to(std::uint64_t n);

  std::uint64_t emitted() const { return emitted_; }

private:
  struct ActiveFlow {
    double next_time = 0.0;
    std::uint64_t flow = 0;
    std::uint32_t next_pkt = 0;
    std::uint32_t pkt_count = 0;
    HostId src = 0;
    HostId dst = 0;
    double birth = 0.0;
    double burst_gap = 0.0; // cycles between burst starts
  };
  struct Later {
    bool operator()(const ActiveFlow& a, const ActiveFlow& b) const {
      if (a.next_time != b.next_time) return a.next_time > b.next_time;
      return a.flow > b.flow;
    }
  };

  /// Per-flow spec from (seed, flow): a pure function, the backbone of
  /// reproducibility and skip_to.
  ActiveFlow make_flow(std::uint64_t flow, double birth) const;
  double packet_time(const ActiveFlow& f, std::uint32_t pkt) const;
  void refill();

  FabricWorkloadConfig config_;
  std::uint32_t num_hosts_;
  ZipfSampler size_sampler_;
  Rng birth_rng_;
  double next_birth_ = 0.0;
  std::uint64_t next_flow_ = 0;
  std::priority_queue<ActiveFlow, std::vector<ActiveFlow>, Later> active_;
  FabricPacketEvent current_;
  bool have_current_ = false;
  std::uint64_t emitted_ = 0;
};

} // namespace mp5::fabric
