#include "baseline/recirc.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mp5 {
namespace {

bool entry_live(const PlannedAccess& e) { return !e.done && !e.cancelled; }

} // namespace

RecircSimulator::RecircSimulator(const Mp5Program& program,
                                 const RecircOptions& options)
    : prog_(&program), opts_(options), c1_(program.pvsm.registers) {
  if (opts_.pipelines == 0) throw ConfigError("pipelines must be > 0");
  k_ = opts_.pipelines;
  num_stages_ = prog_->num_stages;
  Rng rng(opts_.seed);
  state_ = std::make_unique<ShardedState>(
      prog_->pvsm.registers, prog_->shardable, k_,
      ShardingPolicy::kStaticRandom, rng.fork());
  cells_.assign(k_, std::vector<std::optional<Packet>>(num_stages_));
  ingress_.resize(k_);
}

SimResult RecircSimulator::run(const Trace& trace) {
  trace_ = &trace;
  cursor_ = 0;
  result_ = SimResult{};

  Cycle now = 0;
  bool first = true;
  while (live_packets_ > 0 || cursor_ < trace_->size()) {
    if (now >= opts_.max_cycles) {
      throw Error("RecircSimulator: max_cycles exceeded");
    }
    while (cursor_ < trace_->size() &&
           (*trace_)[cursor_].arrival_time < static_cast<double>(now + 1)) {
      admit((*trace_)[cursor_], now);
      ++cursor_;
      if (first) {
        result_.first_arrival = now;
        first = false;
      }
      result_.last_arrival = now;
    }
    // Stages drain back-to-front; stage 0 then admits one packet per
    // pipeline from its ingress queue (fresh arrivals and recirculations
    // compete for this slot — the recirculation throughput penalty).
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
    ++now;
  }
  result_.cycles_run = now;
  result_.final_registers = state_->regs().storage();
  result_.c1_violating_packets = c1_.violating_packets();
  result_.max_queue_depth = max_ingress_depth_;
  std::sort(result_.egress.begin(), result_.egress.end(),
            [](const EgressRecord& a, const EgressRecord& b) {
              return a.seq < b.seq;
            });
  return std::move(result_);
}

void RecircSimulator::admit(const TraceItem& item, Cycle now) {
  Packet pkt;
  pkt.seq = next_seq_++;
  pkt.arrival_cycle = now;
  pkt.port = item.port;
  pkt.size_bytes = item.size_bytes;
  pkt.flow = item.flow;
  load_headers(item, prog_->pvsm, pkt.headers);
  ir::exec_pure(prog_->resolver, pkt.headers);
  plan_accesses(*prog_, pkt.headers, *state_, pkt.plan);

  // Static port-to-pipeline mapping (§2.3): contiguous port blocks.
  const PipelineId pipe = std::min(
      static_cast<PipelineId>(static_cast<std::uint64_t>(pkt.port) * k_ /
                              std::max(1u, opts_.ports)),
      k_ - 1);
  ++result_.offered;
  if (opts_.ingress_capacity != 0 &&
      ingress_[pipe].size() >= opts_.ingress_capacity) {
    ++result_.dropped_data; // ingress tail drop under overload
    // note_completed for the planned accesses, mirroring drop cleanup.
    for (auto& e : pkt.plan) {
      if (!e.done && !e.cancelled) state_->note_completed(e.reg, e.index);
    }
    return;
  }
  ++live_packets_;
  ingress_[pipe].push_back(std::move(pkt));
}

void RecircSimulator::step_cell(PipelineId p, StageId st, Cycle now) {
  if (!cells_[p][st].has_value()) return;
  Packet pkt = std::move(*cells_[p][st]);
  cells_[p][st].reset();

  if (st > 0) {
    const ir::Stage& stage = prog_->pvsm.stages[st - 1];
    C1Observer obs(c1_, pkt.seq);
    for (const auto& atom : stage.atoms) {
      bool allow_state = false;
      if (atom.stateful()) {
        for (const auto& e : pkt.plan) {
          if (e.stage == st && e.reg == atom.reg && entry_live(e) &&
              e.pipeline == p) {
            allow_state = true;
            break;
          }
        }
      }
      if (atom.stateful() && !allow_state) {
        // State lives in another pipeline (or the branch is not taken):
        // execute only the atom's pure computation. Pure instructions are
        // idempotent, so re-execution on later passes is harmless.
        ir::exec_pure(atom.body, pkt.headers);
      } else {
        ir::exec_atom(atom, pkt.headers, state_->regs(),
                      prog_->pvsm.registers, &obs);
      }
    }
    for (auto& e : pkt.plan) {
      if (e.stage == st && e.pipeline == p && entry_live(e)) {
        e.done = true;
        state_->note_completed(e.reg, e.index);
      }
    }
    resolve_conservative_guards(pkt, st);
  }

  if (st == num_stages_ - 1) {
    finish_pass(std::move(pkt), p, now);
  } else {
    cells_[p][st + 1] = std::move(pkt);
  }
}

void RecircSimulator::resolve_conservative_guards(Packet& pkt,
                                                  StageId done_stage) {
  for (auto& e : pkt.plan) {
    if (e.guard != GuardStatus::kConservative || !entry_live(e)) continue;
    if (e.guard_known_after_stage > done_stage) continue;
    // Unlike MP5, a recirculating packet may reach the guard-producing
    // stage before the stateful accesses feeding the guard have executed
    // (they can live in another pipeline). Only resolve once every access
    // at or before the producing stage is complete, i.e. once the pure
    // guard computation has been replayed over fresh register values.
    bool deps_done = true;
    for (const auto& d : pkt.plan) {
      if (&d != &e && entry_live(d) &&
          d.stage <= e.guard_known_after_stage) {
        deps_done = false;
        break;
      }
    }
    if (!deps_done) continue;
    const bool truthy =
        pkt.headers[static_cast<std::size_t>(e.guard_slot)] != 0;
    const bool taken = e.guard_negate ? !truthy : truthy;
    if (taken) {
      e.guard = GuardStatus::kTaken;
    } else {
      e.cancelled = true;
      state_->note_completed(e.reg, e.index);
    }
  }
}

void RecircSimulator::finish_pass(Packet&& pkt, PipelineId /*p*/, Cycle now) {
  pkt.next_access = 0; // rescan: earlier-stage accesses may still be pending
  PlannedAccess* pending = pkt.pending_access();
  if (pending == nullptr) {
    ++result_.egressed;
    --live_packets_;
    result_.last_egress = now;
    if (opts_.record_egress) {
      EgressRecord rec;
      rec.seq = pkt.seq;
      rec.egress_cycle = now;
      rec.flow = pkt.flow;
      rec.headers = std::move(pkt.headers);
      result_.egress.push_back(std::move(rec));
    }
    return;
  }
  // Re-circulate to the pipeline holding the next pending state (§2.3).
  // Recirculated packets take priority over fresh arrivals at the ingress
  // (as on production switches), so the recirculation delay is bounded by
  // pipeline passes rather than by the standing ingress backlog.
  ++result_.recirculations;
  ingress_[pending->pipeline].push_front(std::move(pkt));
}

} // namespace mp5
