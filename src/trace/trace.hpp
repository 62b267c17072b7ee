// Input packet streams (§2.2.1): I = { I_i(p_i, t_i) } — each packet has
// an arrival time and an arrival port. Packets enter the pipeline in
// arrival order; ties are broken by smaller port id (the paper's rule).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "banzai/ir.hpp"
#include "common/types.hpp"

namespace mp5 {

struct TraceItem {
  /// Arrival time in pipeline clock cycles (fractional: at line rate with
  /// minimum-size packets, k packets arrive per cycle on a k-pipeline
  /// switch).
  double arrival_time = 0.0;
  std::uint32_t port = 0;
  std::uint32_t size_bytes = 64;
  std::uint64_t flow = 0;
  /// Values of the program's declared packet fields, in declaration order.
  std::vector<Value> fields;
};

using Trace = std::vector<TraceItem>;

/// Sort by (arrival_time, port): the switch admission order.
void sort_by_arrival(Trace& trace);

/// The arrival-header loader every executor uses: `headers` becomes
/// `program`'s slot vector for this packet. Declared fields come from the
/// trace (their slots are 0..F-1, checked by Pvsm::declared_prefix when the
/// program is compiled) and every other slot is 0, so trace columns past
/// the declared fields never reach the program and missing ones read 0.
/// Keeps `headers`' capacity. Inline: it runs once per admitted packet.
inline void load_headers(const TraceItem& item, const ir::Pvsm& program,
                         std::vector<Value>& headers) {
  headers.assign(program.num_slots(), 0);
  const std::size_t n =
      std::min(item.fields.size(), program.declared_slot.size());
  std::copy_n(item.fields.begin(), n, headers.begin());
}

/// load_headers over a whole trace, for the single-pipeline reference.
std::vector<std::vector<Value>> to_header_batch(const Trace& trace,
                                                const ir::Pvsm& program);

/// Line-rate arrival clock: a k-pipeline switch's aggregate capacity is k
/// minimum-size (64 B) packets per cycle, so a packet of S bytes advances
/// time by S / (64 * k * load) cycles. load > 1 oversubscribes. Throws
/// ConfigError unless pipelines > 0 and load is finite and > 0.
class LineRateClock {
public:
  LineRateClock(std::uint32_t pipelines, double load);

  /// Returns the arrival time for a packet of `size_bytes`, then advances.
  double next(std::uint32_t size_bytes) {
    const double t = now_;
    now_ += size_bytes * per_byte_;
    return t;
  }

private:
  double per_byte_;
  double now_ = 0.0;
};

} // namespace mp5
