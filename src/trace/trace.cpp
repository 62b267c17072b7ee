#include "trace/trace.hpp"

#include <algorithm>

namespace mp5 {

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
