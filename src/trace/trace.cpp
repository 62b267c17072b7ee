#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace mp5 {

LineRateClock::LineRateClock(std::uint32_t pipelines, double load) {
  if (pipelines == 0 || !std::isfinite(load) || load <= 0.0) {
    throw ConfigError("line-rate clock needs pipelines > 0 and a finite "
                      "load > 0, got pipelines " + std::to_string(pipelines) +
                      ", load " + std::to_string(load));
  }
  per_byte_ = 1.0 / (64.0 * pipelines * load);
}

void sort_by_arrival(Trace& trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceItem& a, const TraceItem& b) {
                     if (a.arrival_time != b.arrival_time) {
                       return a.arrival_time < b.arrival_time;
                     }
                     return a.port < b.port;
                   });
}

std::vector<std::vector<Value>> to_header_batch(const Trace& trace,
                                                const ir::Pvsm& program) {
  std::vector<std::vector<Value>> out(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    load_headers(trace[i], program, out[i]);
  }
  return out;
}

} // namespace mp5
