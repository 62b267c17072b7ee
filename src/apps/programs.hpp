// The paper's packet-processing programs, written in the Domino subset:
//   * the four real applications of §4.4 (flowlet switching, CONGA,
//     STFQ/WFQ priority computation, NOPaxos network sequencer), each with
//     a FieldFiller that turns flow-workload packets into header fields;
//   * the running examples of §2.3.1 (global packet counter; the network
//     sequencer that also stamps the count into the packet);
//   * the Figure 3 example program;
//   * a parameterized synthetic program for the §4.3 sensitivity sweeps
//     (one register array per stateful stage).
#pragma once

#include <string>
#include <vector>

#include "trace/workloads.hpp"

namespace mp5::apps {

struct AppSpec {
  std::string name;
  std::string source;
  /// Declared fields driven per packet by the flow workload.
  FieldFiller filler;
  /// Fields identifying the flow (for the optional flow-order stage).
  std::vector<std::string> flow_fields;
};

/// §4.4 Figure 8 applications, in paper order.
std::vector<AppSpec> real_apps();

/// Additional stateful in-network algorithms from the family the paper
/// analyzed for preemptive address resolution ([8, 14, 44, 49] and
/// friends): count-min sketch, SYN-flood detection, DNS-amplification
/// mitigation, RCP average-RTT, sampled NetFlow (stateful sampling
/// predicate — exercises conservative phantoms), Bloom-filter firewall,
/// and DCTCP-style ECN accounting.
std::vector<AppSpec> extended_apps();

AppSpec flowlet_app();
AppSpec conga_app();
AppSpec wfq_app();
AppSpec sequencer_app();

/// A bundled program by name: every real_apps() and extended_apps() entry
/// (with its filler), then "figure3", "counter" and "sequencer_example"
/// (source only, no filler). Throws ConfigError naming the valid programs.
AppSpec builtin(const std::string& name);
/// Every name builtin() accepts, in that order (`mp5c --list`).
std::vector<std::string> builtin_names();

/// §2.3.1 Example 1: count packets in a single register.
std::string packet_counter_source();
/// §2.3.1 Example 2: count packets and write the count into the packet.
std::string sequencer_example_source();
/// The Figure 3 example program (if/else form of the mux ternary).
std::string figure3_source();

/// Synthetic sensitivity program: `stateful_stages` register arrays of
/// `reg_size` entries; packet fields h0..h{n-1} select the index accessed
/// at each stage and field v is accumulated into the arrays.
std::string make_synthetic_source(std::uint32_t stateful_stages,
                                  std::size_t reg_size);

/// A Domino program exercising every conservative-fallback path of the
/// compiler: a stateful predicate (phantom cancellation) and a stateful
/// register index (pinned array). Used by tests and the ablation bench.
std::string stateful_predicate_source();
std::string stateful_index_source();

/// A program using the match-table construct (§2.1: control-plane-
/// populated, constant at runtime): static routing entries gate per-
/// destination connection accounting.
std::string table_routing_source();

} // namespace mp5::apps
