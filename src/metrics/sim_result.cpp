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
  for (const ResultCounter& c : kResultCounters) io.u64(this->*c.member);
  io.seq(final_registers, 8,
         [&](std::vector<Value>& regs) { io.values(regs); });
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
  return d.value();
}

} // namespace mp5
