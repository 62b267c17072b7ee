#include "metrics/sim_result.hpp"

#include <algorithm>

#include "common/serialize.hpp"

namespace mp5 {

double SimResult::input_rate() const {
  if (offered == 0) return 0.0;
  const Cycle window = last_arrival >= first_arrival
                           ? last_arrival - first_arrival + 1
                           : 1;
  return static_cast<double>(offered) / static_cast<double>(window);
}

double SimResult::normalized_throughput() const {
  if (offered == 0 || egressed == 0) return 0.0;
  const Cycle drain = last_egress >= first_arrival
                          ? last_egress - first_arrival + 1
                          : 1;
  const double delivered_rate =
      static_cast<double>(egressed) / static_cast<double>(drain);
  return std::min(1.0, delivered_rate / input_rate());
}

template <class Io> void SimResult::transfer(Io& io) {
  for (const ResultCounter& c : kResultCounters) {
    io.u64(this->*c.member);
    // The fault-drop log follows time_to_recover in the v1 payload.
    if (c.member != &SimResult::time_to_recover) continue;
    io.seq(fault_drops, 9, [&](FaultDrop& d) {
      io.u64(d.seq);
      io.boolean(d.state_touched);
    });
  }
  io.seq(final_registers, 8,
         [&](std::vector<Value>& regs) { io.values(regs); });
  io.seq(egress, 32, [&](EgressRecord& rec) {
    io.u64(rec.seq);
    io.u64(rec.egress_cycle);
    io.u64(rec.flow);
    io.values(rec.headers);
  });
}

// The simulators list this class inside their own transfer().
template void SimResult::transfer(SaveIo&);
template void SimResult::transfer(LoadIo&);

namespace {

bool differ(std::string* why, const char* field) {
  if (why != nullptr) *why = std::string("field '") + field + "' differs";
  return false;
}

} // namespace

bool same_results(const SimResult& a, const SimResult& b, std::string* why) {
  for (const ResultCounter& c : kResultCounters) {
    if (a.*c.member != b.*c.member) return differ(why, c.name);
  }
  if (a.final_registers != b.final_registers) {
    return differ(why, "final_registers");
  }
  if (a.fault_drops.size() != b.fault_drops.size()) {
    return differ(why, "fault_drops.size");
  }
  for (std::size_t i = 0; i < a.fault_drops.size(); ++i) {
    if (a.fault_drops[i].seq != b.fault_drops[i].seq ||
        a.fault_drops[i].state_touched != b.fault_drops[i].state_touched) {
      return differ(why, "fault_drops");
    }
  }
  if (a.egress.size() != b.egress.size()) return differ(why, "egress.size");
  for (std::size_t i = 0; i < a.egress.size(); ++i) {
    const EgressRecord& x = a.egress[i];
    const EgressRecord& y = b.egress[i];
    if (x.seq != y.seq || x.egress_cycle != y.egress_cycle ||
        x.flow != y.flow || x.headers != y.headers) {
      if (why != nullptr) {
        *why = "egress record for seq " + std::to_string(x.seq) + " differs";
      }
      return false;
    }
  }
  return true;
}

void add_registers(Fnv1aDigest& d,
                   const std::vector<std::vector<Value>>& registers) {
  d.add(registers.size());
  for (const auto& reg : registers) {
    d.add(reg.size());
    for (const Value v : reg) d.add(static_cast<std::uint64_t>(v));
  }
}

std::uint64_t result_digest(const SimResult& r) {
  Fnv1aDigest d;
  for (const ResultCounter& c : kResultCounters) d.add(r.*c.member);
  add_registers(d, r.final_registers);
  d.add(r.fault_drops.size());
  for (const SimResult::FaultDrop& f : r.fault_drops) {
    d.add(f.seq);
    d.add(std::uint64_t{f.state_touched});
  }
  d.add(r.egress.size());
  for (const EgressRecord& e : r.egress) {
    d.add(e.seq);
    d.add(e.egress_cycle);
    d.add(e.flow);
    d.add(e.headers.size());
    for (const Value v : e.headers) d.add(static_cast<std::uint64_t>(v));
  }
  return d.value();
}

} // namespace mp5
