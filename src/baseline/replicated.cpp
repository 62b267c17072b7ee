#include "baseline/replicated.hpp"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "mp5/checkpoint.hpp"

namespace mp5 {
ReplicatedSimulator::ReplicatedSimulator(const Mp5Program& program,
                                         const ReplicatedOptions& options)
    : prog_(&program), opts_(options), c1_(program.pvsm.registers) {
  if (opts_.pipelines == 0) {
    throw ConfigError("ReplicatedOptions: pipelines must be > 0");
  }
  if (opts_.checkpoint_interval != 0 && !opts_.checkpoint_sink) {
    throw ConfigError(
        "ReplicatedOptions: checkpoint_interval requires a checkpoint_sink "
        "to receive the blobs");
  }
  k_ = opts_.pipelines;
  num_stages_ = prog_->num_stages;
  replicas_.reserve(k_);
  for (std::uint32_t p = 0; p < k_; ++p) {
    replicas_.emplace_back(prog_->pvsm.initial_registers());
  }
  cells_.assign(k_, std::vector<std::optional<Pkt>>(num_stages_));
  ingress_.resize(k_);
  if (opts_.checkpoint_interval != 0) {
    next_checkpoint_ = opts_.checkpoint_interval;
  }
}

Cycle ReplicatedSimulator::deliver_cycle(Cycle now) const {
  if (opts_.staleness_bound == 0) {
    // SCR: one traversal of the replication channel + replay pipeline.
    return now + num_stages_;
  }
  // Relaxed: the next synchronization boundary strictly after `now`.
  const Cycle d = opts_.staleness_bound;
  return ((now / d) + 1) * d;
}

bool ReplicatedSimulator::heap_greater(const Digest& a, const Digest& b) const {
  return std::tie(a.deliver, a.seq, a.stage) >
         std::tie(b.deliver, b.seq, b.stage);
}

void ReplicatedSimulator::push_digest(Digest&& d) {
  digests_.push_back(std::move(d));
  std::push_heap(digests_.begin(), digests_.end(),
                 [this](const Digest& a, const Digest& b) {
                   return heap_greater(a, b);
                 });
}

void ReplicatedSimulator::pop_digest() {
  std::pop_heap(digests_.begin(), digests_.end(),
                [this](const Digest& a, const Digest& b) {
                  return heap_greater(a, b);
                });
  digests_.pop_back();
}

void ReplicatedSimulator::apply_due_digests(Cycle now) {
  // Delivery order is (deliver, seq, stage): replicas replay remote packet
  // history in arrival order regardless of how execution interleaved.
  while (!digests_.empty() && digests_.front().deliver <= now) {
    const Digest d = digests_.front();
    pop_digest();
    const ir::Stage& stage = prog_->pvsm.stages[d.stage - 1];
    for (PipelineId p = 0; p < k_; ++p) {
      if (p == d.origin) continue;
      std::vector<Value> headers = d.headers;
      ir::exec_stage(stage, headers, replicas_[p], prog_->pvsm.registers);
    }
  }
}

SimResult ReplicatedSimulator::run(const Trace& trace) {
  VectorTraceSource source(trace);
  return run(source);
}

SimResult ReplicatedSimulator::run(TraceSource& source) {
  if (ran_) {
    throw Error("ReplicatedSimulator::run requires a freshly constructed "
                "simulator");
  }
  ran_ = true;
  return run_loop(source, 0);
}

SimResult ReplicatedSimulator::run_loop(TraceSource& source, Cycle start) {
  source_ = &source;
  Cycle now = start;
  bool first = result_.offered == 0;
  while (live_packets_ > 0 || source.peek() != nullptr || !digests_.empty()) {
    if (now >= opts_.max_cycles) {
      throw Error("ReplicatedSimulator: max_cycles exceeded");
    }
    if (opts_.checkpoint_interval != 0 && now == next_checkpoint_) {
      do_checkpoint(now);
      next_checkpoint_ += opts_.checkpoint_interval;
    }
    if (live_packets_ == 0) {
      // Nothing in flight: jump to the next arrival or digest delivery.
      // Clamped to the next checkpoint boundary so the cadence is
      // preserved; results (including cycles_run) are bit-identical to
      // stepping every idle cycle.
      Cycle target = opts_.max_cycles;
      if (const TraceItem* next = source.peek()) {
        target = std::min(target, static_cast<Cycle>(next->arrival_time));
      }
      if (!digests_.empty()) {
        target = std::min(target, digests_.front().deliver);
      }
      if (opts_.checkpoint_interval != 0) {
        target = std::min(target, next_checkpoint_);
      }
      if (target > now) {
        now = target;
        continue; // re-run the boundary checks at the new cycle
      }
    }
    apply_due_digests(now);
    for (const TraceItem* item = source.peek();
         item != nullptr && item->arrival_time < static_cast<double>(now + 1);
         item = source.peek()) {
      admit(*item, now);
      source.advance();
      if (first) {
        result_.first_arrival = now;
        first = false;
      }
      result_.last_arrival = now;
    }
    for (StageId st = num_stages_; st-- > 0;) {
      for (PipelineId p = 0; p < k_; ++p) step_cell(p, st, now);
    }
    for (PipelineId p = 0; p < k_; ++p) {
      if (!cells_[p][0].has_value() && !ingress_[p].empty()) {
        cells_[p][0] = std::move(ingress_[p].front());
        ingress_[p].pop_front();
      }
      max_ingress_depth_ = std::max(max_ingress_depth_, ingress_[p].size());
    }
    if (opts_.paranoid_checks) check_accounting(now);
    ++now;
  }
  source_ = nullptr;
  result_.cycles_run = now;
  result_.final_registers = replicas_[0].storage();
  result_.c1_violating_packets = c1_.violating_packets();
  result_.max_queue_depth = max_ingress_depth_;
  return std::move(result_);
}

void ReplicatedSimulator::admit(const TraceItem& item, Cycle now) {
  Pkt pkt;
  pkt.seq = next_seq_++;
  pkt.arrival_cycle = now;
  pkt.flow = item.flow;
  load_headers(item, prog_->pvsm, pkt.headers);
  ++result_.offered;
  ++live_packets_;
  // Round-robin spray: every replica holds all state, so placement is pure
  // load balancing (no address resolution, no steering).
  ingress_[static_cast<PipelineId>(pkt.seq % k_)].push_back(std::move(pkt));
}

void ReplicatedSimulator::step_cell(PipelineId p, StageId st, Cycle now) {
  if (!cells_[p][st].has_value()) return;
  Pkt pkt = std::move(*cells_[p][st]);
  cells_[p][st].reset();

  if (st > 0) {
    const ir::Stage& stage = prog_->pvsm.stages[st - 1];
    const bool stateful = !stage.stateful_regs().empty();
    std::vector<Value> snapshot;
    if (stateful && k_ > 1) snapshot = pkt.headers;
    C1Observer obs(c1_, pkt.seq);
    ir::exec_stage(stage, pkt.headers, replicas_[p], prog_->pvsm.registers,
                   &obs);
    if (stateful && k_ > 1) {
      Digest d;
      d.deliver = deliver_cycle(now);
      d.seq = pkt.seq;
      d.stage = st;
      d.origin = p;
      d.headers = std::move(snapshot);
      push_digest(std::move(d));
      // Counted as steers: the cross-pipeline replication traffic is this
      // design's analogue of MP5's crossbar traversals.
      ++result_.steers;
    }
  }

  if (st == num_stages_ - 1) {
    ++result_.egressed;
    --live_packets_;
    result_.last_egress = now;
    if (opts_.egress_sink) {
      opts_.egress_sink(
          EgressRecord{pkt.seq, now, pkt.flow, std::move(pkt.headers)});
    }
  } else {
    cells_[p][st + 1] = std::move(pkt);
  }
}

void ReplicatedSimulator::check_accounting(Cycle now) const {
  std::uint64_t counted = 0;
  for (PipelineId p = 0; p < k_; ++p) {
    counted += ingress_[p].size();
    for (StageId st = 0; st < num_stages_; ++st) {
      if (cells_[p][st].has_value()) ++counted;
    }
  }
  if (counted != live_packets_) {
    throw Error("ReplicatedSimulator: live-packet accounting broke at cycle " +
                std::to_string(now) + " (" + std::to_string(counted) +
                " packets found, " + std::to_string(live_packets_) +
                " expected)");
  }
  if (result_.offered != result_.egressed + live_packets_) {
    throw Error("ReplicatedSimulator: offered/egressed/live conservation "
                "broke at cycle " +
                std::to_string(now));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore (mp5-checkpoint v1 framing; the config fingerprint
// covers the design and staleness_bound, so cross-design restores refuse).
// ---------------------------------------------------------------------------

template <class Io>
void ReplicatedSimulator::transfer(Io& io, Cycle& now,
                                   std::uint64_t& consumed) {
  io.u64(now);
  io.u64(next_seq_);
  io.u64(live_packets_);
  io.u64(consumed);
  io.u64(max_ingress_depth_);
  result_.transfer(io);
  for (ir::FlatRegFile& replica : replicas_) {
    auto& storage = replica.storage();
    for (std::size_t reg = 0; reg < prog_->pvsm.registers.size(); ++reg) {
      const ir::RegisterSpec& spec = prog_->pvsm.registers[reg];
      const std::string message =
          "checkpoint: register size mismatch for '" + spec.name + "'";
      io.size_equal(spec.size, message.c_str());
      if constexpr (Io::kLoad) storage[reg].resize(spec.size);
      for (Value& v : storage[reg]) io.i64(v);
    }
  }
  const std::size_t num_slots = prog_->pvsm.num_slots();
  auto headers = [&](std::vector<Value>& h) {
    io.size_equal(num_slots, "checkpoint: packet header width mismatch");
    if constexpr (Io::kLoad) h.resize(num_slots);
    for (Value& v : h) io.i64(v);
  };
  auto packet = [&](Pkt& pkt) {
    io.u64(pkt.seq);
    io.u64(pkt.arrival_cycle);
    io.u64(pkt.flow);
    headers(pkt.headers);
  };
  for (PipelineId p = 0; p < k_; ++p) {
    for (std::optional<Pkt>& cell : cells_[p]) {
      bool occupied = cell.has_value();
      io.boolean(occupied);
      if constexpr (Io::kLoad) {
        cell.reset();
        if (occupied) cell.emplace();
      }
      if (occupied) packet(*cell);
    }
    io.seq(ingress_[p], 28, packet);
  }
  // The heap's raw array is serialized as-is: restoring it verbatim
  // preserves the exact pop order.
  io.seq(digests_, 32, [&](Digest& d) {
    io.u64(d.deliver);
    io.u64(d.seq);
    io.u32(d.stage);
    io.u32(d.origin);
    io.check(d.stage != 0 && d.stage < num_stages_ && d.origin < k_,
             "checkpoint: digest addresses an invalid stage or lane");
    headers(d.headers);
  });
  c1_.transfer(io);
}

std::string ReplicatedSimulator::serialize_state(Cycle now) const {
  ByteWriter w;
  SaveIo io(w);
  std::uint64_t consumed = source_->consumed();
  const_cast<ReplicatedSimulator*>(this)->transfer(io, now, consumed);
  return w.take();
}

Cycle ReplicatedSimulator::restore_state(ByteReader& r,
                                         std::uint64_t& trace_consumed) {
  LoadIo io(r);
  Cycle now = 0;
  transfer(io, now, trace_consumed);
  return now;
}

void ReplicatedSimulator::do_checkpoint(Cycle now) {
  opts_.checkpoint_sink(
      now, frame_checkpoint(config_fingerprint(*prog_, opts_), now,
                            serialize_state(now)));
}

SimResult ReplicatedSimulator::resume(TraceSource& source,
                                      std::string_view checkpoint_blob) {
  if (ran_ || next_seq_ != 0) {
    throw Error(
        "ReplicatedSimulator::resume requires a freshly constructed "
        "simulator");
  }
  ran_ = true;
  std::uint64_t consumed = 0;
  const Cycle now = resume_checkpoint(
      checkpoint_blob, config_fingerprint(*prog_, opts_),
      opts_.checkpoint_interval, next_checkpoint_,
      [&](ByteReader& r) { return restore_state(r, consumed); });
  source.skip_to(consumed);
  return run_loop(source, now);
}

} // namespace mp5
