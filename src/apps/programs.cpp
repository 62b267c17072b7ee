#include "apps/programs.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/hashing.hpp"

namespace mp5::apps {
namespace {

/// Deterministic pseudo-random value derived from a flow packet, for
/// fields (path utilization, path id, ...) that the trace does not model
/// physically.
Value derived(const FlowPacketInfo& info, std::uint64_t salt,
              std::uint64_t modulus) {
  return static_cast<Value>(
      mix64(info.flow * 0x9e3779b97f4a7c15ULL + info.packet_in_flow + salt) %
      modulus);
}

Value flow_sport(const FlowPacketInfo& info) {
  return static_cast<Value>(mix64(info.flow) & 0xffff);
}
Value flow_dport(const FlowPacketInfo& info) {
  return static_cast<Value>((mix64(info.flow) >> 16) & 0xffff);
}

} // namespace

AppSpec flowlet_app() {
  AppSpec app;
  app.name = "flowlet";
  // Flowlet switching [30] as in domino-examples/flowlets.c: pick a new
  // next hop when the inter-packet gap within a flow exceeds IPG.
  app.source = R"(
    struct Packet {
      int sport;
      int dport;
      int arrival;
      int new_hop;
      int id;
      int next_hop;
    };
    const int IPG = 40;
    const int NHOPS = 10;
    const int NFLOWLETS = 8192;
    int last_time[8192] = {0};
    int saved_hop[8192] = {0};
    void flowlet(struct Packet p) {
      p.new_hop = hash3(p.sport, p.dport, p.arrival) % NHOPS;
      p.id = hash2(p.sport, p.dport) % NFLOWLETS;
      if (p.arrival - last_time[p.id] > IPG) {
        saved_hop[p.id] = p.new_hop;
      }
      last_time[p.id] = p.arrival;
      p.next_hop = saved_hop[p.id];
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        flow_sport(info),
        flow_dport(info),
        static_cast<Value>(info.arrival_time),
        0, 0, 0};
  };
  app.flow_fields = {"sport", "dport"};
  return app;
}

AppSpec conga_app() {
  AppSpec app;
  app.name = "conga";
  // CONGA leaf-switch best-path table [1], as in domino-examples/conga.c:
  // remember the least-utilized path per destination.
  app.source = R"(
    struct Packet {
      int dst;
      int util;
      int path_id;
      int best;
    };
    const int NDST = 4096;
    int best_path_util[4096] = {1000000};
    int best_path[4096] = {0};
    void conga(struct Packet p) {
      if (p.util < best_path_util[p.dst % NDST]) {
        best_path_util[p.dst % NDST] = p.util;
        best_path[p.dst % NDST] = p.path_id;
      }
      p.best = best_path[p.dst % NDST];
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        static_cast<Value>(mix64(info.flow) % 4096), // dst
        derived(info, 17, 1000),                     // measured path util
        derived(info, 23, 16),                       // path id
        0};
  };
  app.flow_fields = {"dst"};
  return app;
}

AppSpec wfq_app() {
  AppSpec app;
  app.name = "wfq";
  // Priority computation for weighted fair queuing (start-time fair
  // queuing [32]): start = max(virtual time, flow's last finish time).
  app.source = R"(
    struct Packet {
      int sport;
      int dport;
      int size;
      int virtual_time;
      int start;
      int id;
    };
    const int NFLOWS = 1024;
    int last_finish[1024] = {0};
    void stfq(struct Packet p) {
      p.id = hash2(p.sport, p.dport) % NFLOWS;
      p.start = max(p.virtual_time, last_finish[p.id]);
      last_finish[p.id] = p.start + p.size;
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        flow_sport(info),
        flow_dport(info),
        static_cast<Value>(info.size_bytes),
        static_cast<Value>(info.arrival_time),
        0, 0};
  };
  app.flow_fields = {"sport", "dport"};
  return app;
}

AppSpec sequencer_app() {
  AppSpec app;
  app.name = "sequencer";
  // NOPaxos network sequencer [22]: stamp a global sequence number into
  // every OUM write. A single scalar register: the fundamental serial
  // case of §3.5.2.
  app.source = R"(
    struct Packet {
      int group;
      int op;
      int seq_no;
    };
    const int WRITE = 1;
    int counter = 0;
    void sequencer(struct Packet p) {
      if (p.op == WRITE) {
        counter = counter + 1;
        p.seq_no = counter;
      }
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        static_cast<Value>(mix64(info.flow) % 8), // replication group
        derived(info, 31, 10) < 9 ? 1 : 0,        // 90% writes
        0};
  };
  app.flow_fields = {"group"};
  return app;
}

std::vector<AppSpec> real_apps() {
  return {flowlet_app(), conga_app(), wfq_app(), sequencer_app()};
}

namespace {

AppSpec count_min_app() {
  AppSpec app;
  app.name = "count_min";
  // Count-min sketch [49-style]: three hashed counter rows, estimate is
  // the row minimum. Reads-after-writes fuse into one atom per row.
  app.source = R"(
    struct Packet { int key; int est; };
    const int W = 1024;
    int row0[1024] = {0};
    int row1[1024] = {0};
    int row2[1024] = {0};
    void cms(struct Packet p) {
      row0[hash2(p.key, 0) % W] = row0[hash2(p.key, 0) % W] + 1;
      row1[hash2(p.key, 1) % W] = row1[hash2(p.key, 1) % W] + 1;
      row2[hash2(p.key, 2) % W] = row2[hash2(p.key, 2) % W] + 1;
      p.est = min(row0[hash2(p.key, 0) % W],
                  min(row1[hash2(p.key, 1) % W],
                      row2[hash2(p.key, 2) % W]));
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{static_cast<Value>(mix64(info.flow) % 5000), 0};
  };
  app.flow_fields = {"key"};
  return app;
}

AppSpec syn_flood_app() {
  AppSpec app;
  app.name = "syn_flood";
  // SYN-flood detection: per-destination SYN vs ACK balance.
  app.source = R"(
    struct Packet { int dst; int syn; int ack; int alarm; };
    const int N = 2048;
    const int THRESH = 100;
    int syn_count[2048] = {0};
    int ack_count[2048] = {0};
    void detect(struct Packet p) {
      if (p.syn == 1) { syn_count[p.dst % N] = syn_count[p.dst % N] + 1; }
      if (p.ack == 1) { ack_count[p.dst % N] = ack_count[p.dst % N] + 1; }
      p.alarm = syn_count[p.dst % N] - ack_count[p.dst % N] > THRESH;
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    const bool syn = info.packet_in_flow == 0;
    return std::vector<Value>{
        static_cast<Value>(mix64(info.flow) % 2048), syn ? 1 : 0,
        syn ? 0 : 1, 0};
  };
  app.flow_fields = {"dst"};
  return app;
}

AppSpec dns_amplification_app() {
  AppSpec app;
  app.name = "dns_amp";
  // EXPOSURE-style [8] DNS amplification mitigation: per-source
  // response/request byte ratio.
  app.source = R"(
    struct Packet { int src; int len; int is_response; int suspicious; };
    const int N = 4096;
    int resp_bytes[4096] = {0};
    int req_bytes[4096] = {0};
    void monitor(struct Packet p) {
      if (p.is_response == 1) {
        resp_bytes[p.src % N] = resp_bytes[p.src % N] + p.len;
      } else {
        req_bytes[p.src % N] = req_bytes[p.src % N] + p.len;
      }
      p.suspicious = resp_bytes[p.src % N] > req_bytes[p.src % N] * 10;
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        static_cast<Value>(mix64(info.flow) % 4096),
        static_cast<Value>(info.size_bytes),
        derived(info, 41, 3) == 0 ? 1 : 0, 0};
  };
  app.flow_fields = {"src"};
  return app;
}

AppSpec rcp_app() {
  AppSpec app;
  app.name = "rcp";
  // RCP [14]: running RTT sum / packet count for the fair-rate update.
  app.source = R"(
    struct Packet { int rtt; int avg_rtt; };
    int sum_rtt = 0;
    int num_pkts = 0;
    void rcp(struct Packet p) {
      sum_rtt = sum_rtt + p.rtt;
      num_pkts = num_pkts + 1;
      p.avg_rtt = sum_rtt / num_pkts;
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{100 + derived(info, 53, 200), 0};
  };
  app.flow_fields = {"rtt"};
  return app;
}

AppSpec sampled_netflow_app() {
  AppSpec app;
  app.name = "netflow";
  // Sampled NetFlow [44]: a global sample counter gates the per-flow
  // counter update — a genuinely stateful predicate, so MP5 must emit
  // conservative phantoms and cancel them in flight (§3.3).
  app.source = R"(
    struct Packet { int fid; int sampled; };
    const int RATE = 16;
    const int N = 4096;
    int ticker = 0;
    int flow_pkts[4096] = {0};
    void sample(struct Packet p) {
      ticker = ticker + 1;
      p.sampled = (ticker % RATE) == 0;
      if (p.sampled) {
        flow_pkts[p.fid % N] = flow_pkts[p.fid % N] + 1;
      }
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{static_cast<Value>(mix64(info.flow) % 4096), 0};
  };
  app.flow_fields = {"fid"};
  return app;
}

AppSpec bloom_firewall_app() {
  AppSpec app;
  app.name = "bloom_firewall";
  // Stateful firewall: outbound packets insert the 5-tuple into a Bloom
  // filter; inbound packets are allowed only on a filter hit.
  app.source = R"(
    struct Packet { int tuple; int outbound; int allowed; };
    const int M = 8192;
    int bf0[8192] = {0};
    int bf1[8192] = {0};
    int bf2[8192] = {0};
    void firewall(struct Packet p) {
      if (p.outbound == 1) {
        bf0[hash2(p.tuple, 10) % M] = 1;
        bf1[hash2(p.tuple, 20) % M] = 1;
        bf2[hash2(p.tuple, 30) % M] = 1;
      }
      p.allowed = (p.outbound == 1) ||
                  (bf0[hash2(p.tuple, 10) % M] &
                   bf1[hash2(p.tuple, 20) % M] &
                   bf2[hash2(p.tuple, 30) % M]);
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        static_cast<Value>(mix64(info.flow) & 0xffffff),
        derived(info, 61, 2), 0};
  };
  app.flow_fields = {"tuple"};
  return app;
}

AppSpec dctcp_ecn_app() {
  AppSpec app;
  app.name = "dctcp_ecn";
  // DCTCP-style [2] per-port ECN accounting: fraction of marked bytes.
  app.source = R"(
    struct Packet { int port_id; int len; int ecn; int frac_x1000; };
    const int PORTS = 64;
    int ecn_bytes[64] = {0};
    int tot_bytes[64] = {0};
    void account(struct Packet p) {
      if (p.ecn == 1) {
        ecn_bytes[p.port_id % PORTS] = ecn_bytes[p.port_id % PORTS] + p.len;
      }
      tot_bytes[p.port_id % PORTS] = tot_bytes[p.port_id % PORTS] + p.len;
      p.frac_x1000 =
          ecn_bytes[p.port_id % PORTS] * 1000 / tot_bytes[p.port_id % PORTS];
    }
  )";
  app.filler = [](const FlowPacketInfo& info) {
    return std::vector<Value>{
        static_cast<Value>(mix64(info.flow) % 64),
        static_cast<Value>(info.size_bytes),
        derived(info, 71, 10) == 0 ? 1 : 0, 0};
  };
  app.flow_fields = {"port_id"};
  return app;
}

} // namespace

std::vector<AppSpec> extended_apps() {
  return {count_min_app(),       syn_flood_app(), dns_amplification_app(),
          rcp_app(),             sampled_netflow_app(),
          bloom_firewall_app(),  dctcp_ecn_app()};
}

namespace {

/// builtin()'s catalogue, in builtin_names() order.
std::vector<AppSpec> builtins() {
  std::vector<AppSpec> all = real_apps();
  for (AppSpec& app : extended_apps()) all.push_back(std::move(app));
  for (auto [name, source] :
       {std::pair{"figure3", figure3_source()},
        std::pair{"counter", packet_counter_source()},
        std::pair{"sequencer_example", sequencer_example_source()},
        std::pair{"synthetic", make_synthetic_source(4, 1024)}}) {
    AppSpec app;
    app.name = name;
    app.source = std::move(source);
    all.push_back(std::move(app));
  }
  return all;
}

} // namespace

AppSpec builtin(const std::string& name) {
  std::vector<AppSpec> all = builtins();
  for (AppSpec& app : all) {
    if (app.name == name) return std::move(app);
  }
  std::string valid;
  for (const AppSpec& app : all) {
    valid += (valid.empty() ? "" : ", ") + app.name;
  }
  throw ConfigError("unknown builtin program '" + name +
                    "' (expected one of " + valid + ")");
}

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const AppSpec& app : builtins()) names.push_back(app.name);
  return names;
}

std::string packet_counter_source() {
  return R"(
    struct Packet { int unused; };
    int count = 0;
    void counter(struct Packet p) {
      count = count + 1;
    }
  )";
}

std::string sequencer_example_source() {
  return R"(
    struct Packet { int stamp; };
    int count = 0;
    void sequencer(struct Packet p) {
      count = count + 1;
      p.stamp = count;
    }
  )";
}

std::string figure3_source() {
  return R"(
    struct Packet {
      int h1;
      int h2;
      int h3;
      int val;
      int mux;
    };
    int reg1[4] = {2, 4, 8, 16};
    int reg2[4] = {1, 3, 5, 7};
    int reg3[4] = {0};
    void func(struct Packet p) {
      if (p.mux == 1) {
        p.val = reg1[p.h1 % 4];
      } else {
        p.val = reg2[p.h2 % 4];
      }
      reg3[p.h3 % 4] = (p.mux == 1) ? reg3[p.h3 % 4] * p.val
                                    : reg3[p.h3 % 4] + p.val;
    }
  )";
}

std::string make_synthetic_source(std::uint32_t stateful_stages,
                                  std::size_t reg_size) {
  std::ostringstream os;
  os << "struct Packet {\n";
  for (std::uint32_t s = 0; s < stateful_stages; ++s) {
    os << "  int h" << s << ";\n";
  }
  os << "  int v;\n};\n";
  for (std::uint32_t s = 0; s < stateful_stages; ++s) {
    os << "int reg" << s << "[" << reg_size << "] = {0};\n";
  }
  os << "void synth(struct Packet p) {\n";
  if (stateful_stages == 0) {
    os << "  p.v = p.v + 1;\n";
  }
  for (std::uint32_t s = 0; s < stateful_stages; ++s) {
    os << "  reg" << s << "[p.h" << s << " % " << reg_size << "] = reg" << s
       << "[p.h" << s << " % " << reg_size << "] + p.v;\n";
  }
  os << "}\n";
  return os.str();
}

std::string table_routing_source() {
  return R"(
    struct Packet { int dst; int out_port; int allow; };
    const int LIMIT = 1000;
    table route (p.dst % 16) {
      0 : { p.out_port = 1; }
      1 : { p.out_port = 2; }
      2 : { p.out_port = 2; }
      3 : { p.out_port = 3; }
      default : { p.out_port = 0; }
    }
    int conn_count[256] = {0};
    void acl(struct Packet p) {
      apply route;
      if (p.out_port != 0) {
        conn_count[p.dst % 256] = conn_count[p.dst % 256] + 1;
      }
      p.allow = (p.out_port != 0) && (conn_count[p.dst % 256] < LIMIT);
    }
  )";
}

std::string stateful_predicate_source() {
  // The guard of reg2's update depends on reg1's value, so it cannot be
  // resolved preemptively: MP5 generates a conservative phantom and
  // cancels it in flight when the predicate is false (§3.3).
  return R"(
    struct Packet { int key; int v; int out; };
    int gate[64] = {0};
    int acc[64] = {0};
    void f(struct Packet p) {
      gate[p.key % 64] = gate[p.key % 64] + 1;
      if (gate[p.key % 64] & 1) {
        acc[p.v % 64] = acc[p.v % 64] + p.v;
      }
      p.out = p.v;
    }
  )";
}

std::string stateful_index_source() {
  // reg2's index is itself read from reg1: the index cannot be resolved
  // preemptively, so reg2 is pinned to a single pipeline (no D2, §3.3).
  return R"(
    struct Packet { int key; int v; int idx; int out; };
    int ptr[16] = {0};
    int table[64] = {0};
    void f(struct Packet p) {
      ptr[p.key % 16] = (ptr[p.key % 16] + 1) % 64;
      p.idx = ptr[p.key % 16];
      table[p.idx] = table[p.idx] + p.v;
      p.out = p.key;
    }
  )";
}

} // namespace mp5::apps
