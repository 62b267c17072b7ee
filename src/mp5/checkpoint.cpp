#include "mp5/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "mp5/simulator.hpp"

namespace mp5 {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string frame_checkpoint(std::uint64_t fingerprint, Cycle cycle,
                             std::string payload) {
  ByteWriter w;
  w.bytes(kCheckpointMagic.data(), kCheckpointMagic.size());
  w.u32(kCheckpointVersion);
  w.u64(fingerprint);
  w.u64(cycle);
  w.u64(payload.size());
  w.bytes(payload.data(), payload.size());
  w.u64(fnv1a(w.buffer()));
  return w.take();
}

CheckpointInfo parse_checkpoint(std::string_view blob) {
  const std::size_t header =
      kCheckpointMagic.size() + 4 + 8 + 8 + 8; // magic, ver, fp, cycle, len
  if (blob.size() < kCheckpointMagic.size() ||
      blob.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
    throw Error("not an mp5-checkpoint v1 file (bad magic)");
  }
  if (blob.size() < header + 8) {
    throw Error("checkpoint truncated (incomplete header)");
  }
  // The trailing checksum covers everything before it; verify first so a
  // corrupted length field cannot send the payload reader astray.
  const std::uint64_t stored_sum =
      ByteReader(blob.substr(blob.size() - 8)).u64();
  if (fnv1a(blob.substr(0, blob.size() - 8)) != stored_sum) {
    throw Error("checkpoint corrupted (checksum mismatch)");
  }
  ByteReader r(blob.substr(kCheckpointMagic.size()));
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion) {
    throw Error("unsupported checkpoint version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
  }
  CheckpointInfo info;
  info.fingerprint = r.u64();
  info.cycle = r.u64();
  const std::uint64_t payload_len = r.u64();
  if (payload_len != blob.size() - header - 8) {
    throw Error("checkpoint corrupted (payload length mismatch)");
  }
  info.payload = blob.substr(header, static_cast<std::size_t>(payload_len));
  return info;
}

std::size_t framed_size(std::string_view blob) {
  const std::size_t header = kCheckpointMagic.size() + 4 + 8 + 8 + 8;
  if (blob.size() < header) {
    throw Error("checkpoint truncated (incomplete header)");
  }
  const std::uint64_t payload_len =
      ByteReader(blob.substr(header - 8)).u64();
  if (payload_len > blob.size() - header ||
      blob.size() - header - payload_len < 8) {
    throw Error("checkpoint truncated (frame exceeds file)");
  }
  return header + static_cast<std::size_t>(payload_len) + 8;
}

void write_checkpoint_file(const std::string& path, const std::string& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw Error("cannot open checkpoint file for writing: " + tmp);
  }
  const std::size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != blob.size() || !flushed) {
    std::remove(tmp.c_str());
    throw Error("short write to checkpoint file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename checkpoint into place: " + path);
  }
}

std::string read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error("cannot open checkpoint file: " + path);
  }
  std::string blob;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) != 0) {
    blob.append(buf, n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw Error("error reading checkpoint file: " + path);
  return blob;
}

// ---------------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------------

namespace {

/// Incremental FNV-1a over fixed-width little-endian scalars.
struct Fp {
  std::uint64_t h = kFnv1aOffset;
  void raw(std::uint64_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= kFnv1aPrime;
    }
  }
  void u64(std::uint64_t v) { raw(v, 8); }
  void u32(std::uint32_t v) { raw(v, 4); }
  void b(bool v) { raw(v ? 1 : 0, 1); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

/// Program shape: enough structure to reject a checkpoint taken against a
/// different compiled program (full IR equality would be overkill — the
/// payload readers validate sizes again anyway).
void hash_program_shape(Fp& fp, const Mp5Program& program) {
  fp.u32(program.num_stages);
  fp.u64(program.pvsm.num_slots());
  fp.u64(program.pvsm.registers.size());
  for (const auto& spec : program.pvsm.registers) fp.u64(spec.size);
  fp.u64(program.accesses.size());
  for (std::size_t i = 0; i < program.shardable.size(); ++i) {
    fp.b(program.shardable[i]);
  }
  fp.b(program.has_flow_order);
}

} // namespace

std::uint64_t config_fingerprint(const Mp5Program& program,
                                 const SimOptions& options) {
  Fp fp;
  // Semantic SimOptions: everything that changes *what* the run computes.
  // Run knobs (max_cycles, paranoid_checks, sinks, telemetry, checkpoint
  // cadence) are excluded by design: they cannot change the result, so a
  // checkpoint may be restored under a different run configuration.
  // Design tag 0 and staleness 0: the prefix the replicated overload below
  // shares, so MP5, SCR and relaxed configurations never hash equal input.
  fp.u32(0);
  fp.u32(0);
  fp.u32(options.pipelines);
  fp.u64(options.fifo_capacity);
  fp.u32(options.remap_period);
  fp.u32(static_cast<std::uint32_t>(options.sharding));
  fp.b(options.realistic_phantom_channel);
  fp.b(options.phantoms);
  fp.b(options.ideal_queues);
  fp.b(options.naive_single_pipeline);
  fp.u64(options.starvation_threshold);
  fp.u64(options.ecn_threshold);
  fp.b(options.record_egress);
  fp.b(true); // C1 tracking, once a knob; kept so old checkpoints restore
  fp.b(options.track_flow_reordering);
  fp.u64(options.seed);
  // Fault plan: the schedule is part of the deterministic run definition.
  const FaultPlan& plan = options.faults;
  fp.u64(plan.pipeline_faults.size());
  for (const auto& pf : plan.pipeline_faults) {
    fp.u32(pf.pipeline);
    fp.u64(pf.fail_at);
    fp.u64(pf.recover_at);
  }
  fp.u64(plan.stalls.size());
  for (const auto& st : plan.stalls) {
    fp.u32(st.pipeline);
    fp.u32(st.stage);
    fp.u64(st.from);
    fp.u64(st.until);
  }
  fp.u64(plan.fifo_pressure.size());
  for (const auto& pr : plan.fifo_pressure) {
    fp.u64(pr.from);
    fp.u64(pr.until);
    fp.u64(pr.capacity);
  }
  fp.f64(plan.phantom_loss_rate);
  fp.f64(plan.phantom_delay_rate);
  fp.u64(plan.phantom_extra_delay);
  hash_program_shape(fp, program);
  return fp.h;
}

std::uint64_t config_fingerprint(const Mp5Program& program,
                                 const ReplicatedOptions& options) {
  Fp fp;
  // Design tag (1 = SCR, 2 = relaxed) and Δ: a checkpoint never restores
  // across designs or staleness bounds. Run knobs are excluded as above.
  fp.u32(options.staleness_bound == 0 ? 1 : 2);
  fp.u32(options.staleness_bound);
  fp.u32(options.pipelines);
  fp.b(options.record_egress);
  fp.b(true); // C1 tracking, once a knob
  // Payload revision: 1 since the C1 checker stores a dense table here
  // too, so a checkpoint with the older sparse C1 table is refused.
  fp.u32(1);
  hash_program_shape(fp, program);
  return fp.h;
}

// ---------------------------------------------------------------------------
// Mp5Simulator state serialization
// ---------------------------------------------------------------------------

std::string Mp5Simulator::serialize_state(Cycle now) {
  ByteWriter w;
  w.u64(now);
  w.u64(next_seq_);
  w.u64(live_packets_);
  w.u64(source_ != nullptr ? source_->consumed() : 0);

  result_.save(w);
  arena_.save(w);
  state_->save(w);

  w.u64(fifos_.size());
  for (const StageFifo& fifo : fifos_) fifo.save(w);

  // Per-cell arrival slots: only the occupied prefix of each stride.
  for (std::size_t c = 0; c < arrival_count_.size(); ++c) {
    const std::uint32_t n = arrival_count_[c];
    w.u32(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const ArrivedRef& a = arrival_slots_[c * k_ + i];
      w.u32(a.ref);
      w.u32(a.from_lane);
    }
  }

  for (const auto& q : ingress_) {
    w.u64(q.size());
    for (const PacketRef ref : q) w.u32(ref);
  }

  // Phantom channel: slots (including dead ones — the freelist references
  // them by position), freelist in exact order (it decides the next slot
  // recycled), and the heap's raw array (stale lazy-deletion entries and
  // all; the array *is* the heap). channel_index_ and channel_live_ are
  // derived and rebuilt on restore.
  w.u64(channel_slots_.size());
  for (const PendingPhantom& rec : channel_slots_) {
    w.u64(rec.seq);
    w.u32(rec.reg);
    w.u32(rec.index);
    w.u32(rec.pipeline);
    w.u32(rec.stage);
    w.u32(rec.lane);
    w.boolean(rec.cancelled);
    w.u64(rec.stamp);
  }
  w.u64(channel_free_.size());
  for (const std::uint32_t slot : channel_free_) w.u32(slot);
  w.u64(channel_heap_.size());
  for (const ChannelDue& due : channel_heap_) {
    w.u64(due.deliver);
    w.u64(due.seq);
    w.u32(due.slot);
    w.u64(due.stamp);
  }
  w.u64(channel_next_stamp_);

  for (const auto& lane_set : lost_phantoms_) {
    std::vector<ChannelKey> keys(lane_set.begin(), lane_set.end());
    std::sort(keys.begin(), keys.end(),
              [](const ChannelKey& a, const ChannelKey& b) {
                return std::tie(a.seq, a.pipeline, a.stage) <
                       std::tie(b.seq, b.pipeline, b.stage);
              });
    w.u64(keys.size());
    for (const ChannelKey& key : keys) {
      w.u64(key.seq);
      w.u32(key.pipeline);
      w.u32(key.stage);
    }
  }

  w.u64(fault_cursor_);
  for (const std::uint64_t s : fault_rng_.state()) w.u64(s);
  w.u64(current_pressure_);
  for (PipelineId p = 0; p < k_; ++p) w.boolean(lane_alive_[p]);
  w.u64(fail_marker_);
  w.boolean(awaiting_egress_after_failure_);

  c1_.save(w);

  {
    std::vector<std::pair<std::uint64_t, SeqNo>> flows(
        flow_last_egress_.begin(), flow_last_egress_.end());
    std::sort(flows.begin(), flows.end());
    w.u64(flows.size());
    for (const auto& [flow, seq] : flows) {
      w.u64(flow);
      w.u64(seq);
    }
  }

  // Named counters: the counts SimResult has no field for (SimResult
  // itself travels above), written whether or not telemetry is attached.
  // The layout (flag, named counters, named gauges) is the one older
  // checkpoints used; no gauges are written, they are end-of-run values.
  const auto counts = named_counts();
  w.boolean(true);
  w.u64(counts.size());
  for (const auto& [name, value] : counts) {
    w.str(name);
    w.u64(*value);
  }
  w.u64(0);

  return w.take();
}

Cycle Mp5Simulator::restore_state(ByteReader& r,
                                  std::uint64_t& trace_consumed) {
  const Cycle now = r.u64();
  next_seq_ = r.u64();
  live_packets_ = r.u64();
  trace_consumed = r.u64();

  result_.load(r);
  arena_.load(r);
  state_->load(r);

  if (r.count(1) != fifos_.size()) {
    throw Error("checkpoint: stage-FIFO grid size mismatch");
  }
  for (StageFifo& fifo : fifos_) fifo.load(r);
  // Fault-plan pressure clamps are re-applied below once current_pressure_
  // is known (StageFifo::load restores content, not the transient clamp).

  for (std::size_t c = 0; c < arrival_count_.size(); ++c) {
    const std::uint32_t n = r.u32();
    if (n > k_) {
      throw Error("checkpoint: arrival slot count exceeds stride");
    }
    arrival_count_[c] = n;
    for (std::uint32_t i = 0; i < n; ++i) {
      ArrivedRef& a = arrival_slots_[c * k_ + i];
      a.ref = r.u32();
      a.from_lane = r.u32();
      if (!arena_.live(a.ref)) {
        throw Error("checkpoint: arrival slot references a dead packet");
      }
      if (a.from_lane >= k_) {
        throw Error("checkpoint: arrival slot lane out of range");
      }
    }
  }

  for (auto& q : ingress_) {
    q.clear();
    const std::uint64_t n = r.count(4);
    for (std::uint64_t i = 0; i < n; ++i) {
      const PacketRef ref = r.u32();
      if (!arena_.live(ref)) {
        throw Error("checkpoint: ingress queue references a dead packet");
      }
      q.push_back(ref);
    }
  }

  channel_slots_.clear();
  channel_index_.clear();
  channel_live_ = 0;
  const std::uint64_t nslots = r.count(37);
  channel_slots_.reserve(static_cast<std::size_t>(nslots));
  for (std::uint64_t i = 0; i < nslots; ++i) {
    PendingPhantom rec;
    rec.seq = r.u64();
    rec.reg = r.u32();
    rec.index = r.u32();
    rec.pipeline = r.u32();
    rec.stage = r.u32();
    rec.lane = r.u32();
    rec.cancelled = r.boolean();
    rec.stamp = r.u64();
    if (rec.stamp != 0) {
      if (rec.pipeline >= k_ || rec.stage >= num_stages_) {
        throw Error("checkpoint: channel record addresses an invalid cell");
      }
      channel_index_[ChannelKey{rec.seq, rec.pipeline, rec.stage}] =
          static_cast<std::uint32_t>(i);
      ++channel_live_;
    }
    channel_slots_.push_back(rec);
  }
  channel_free_.clear();
  const std::uint64_t nfree = r.count(4);
  for (std::uint64_t i = 0; i < nfree; ++i) {
    const std::uint32_t slot = r.u32();
    if (slot >= channel_slots_.size() || channel_slots_[slot].stamp != 0) {
      throw Error("checkpoint: channel freelist references a live slot");
    }
    channel_free_.push_back(slot);
  }
  channel_heap_.clear();
  const std::uint64_t nheap = r.count(28);
  channel_heap_.reserve(static_cast<std::size_t>(nheap));
  for (std::uint64_t i = 0; i < nheap; ++i) {
    ChannelDue due;
    due.deliver = r.u64();
    due.seq = r.u64();
    due.slot = r.u32();
    due.stamp = r.u64();
    if (due.slot >= channel_slots_.size()) {
      throw Error("checkpoint: channel heap entry out of range");
    }
    channel_heap_.push_back(due);
  }
  channel_next_stamp_ = r.u64();
  due_scratch_.clear();

  for (auto& lane_set : lost_phantoms_) {
    lane_set.clear();
    const std::uint64_t n = r.count(16);
    for (std::uint64_t i = 0; i < n; ++i) {
      ChannelKey key;
      key.seq = r.u64();
      key.pipeline = r.u32();
      key.stage = r.u32();
      lane_set.insert(key);
    }
  }

  fault_cursor_ = r.u64();
  if (fault_cursor_ > fault_sched_.lane_events().size()) {
    throw Error("checkpoint: fault cursor past the end of the schedule");
  }
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& s : rng_state) s = r.u64();
  fault_rng_.set_state(rng_state);
  current_pressure_ = r.u64();
  for (PipelineId p = 0; p < k_; ++p) lane_alive_[p] = r.boolean();
  fail_marker_ = r.u64();
  awaiting_egress_after_failure_ = r.boolean();
  for (StageFifo& fifo : fifos_) fifo.set_pressure_capacity(current_pressure_);

  c1_.load(r);

  flow_last_egress_.clear();
  const std::uint64_t nflows = r.count(16);
  flow_last_egress_.reserve(static_cast<std::size_t>(nflows));
  for (std::uint64_t i = 0; i < nflows; ++i) {
    const std::uint64_t flow = r.u64();
    flow_last_egress_[flow] = r.u64();
  }

  // Named counters. Older builds wrote the flag false when no telemetry
  // was attached, and wrote every registry counter and gauge otherwise:
  // names this build does not keep, and all gauges, are skipped.
  if (r.boolean()) {
    const auto counts = named_counts();
    const std::uint64_t nc = r.count(16);
    for (std::uint64_t i = 0; i < nc; ++i) {
      const std::string name = r.str();
      const std::uint64_t value = r.u64();
      for (const auto& [known, slot] : counts) {
        if (name == known) *slot = value;
      }
    }
    const std::uint64_t ng = r.count(16);
    for (std::uint64_t i = 0; i < ng; ++i) {
      (void)r.str();
      (void)r.f64();
    }
  }

  // The activity bitmap is derived state (never serialized): rebuild it
  // from the restored FIFO/arrival occupancy.
  rebuild_activity();

  return now;
}

void Mp5Simulator::do_checkpoint(Cycle now) {
  opts_.checkpoint_sink(
      now, frame_checkpoint(config_fingerprint(*prog_, opts_), now,
                            serialize_state(now)));
}

SimResult Mp5Simulator::resume(TraceSource& source,
                               std::string_view checkpoint_blob) {
  if (next_seq_ != 0 || live_packets_ != 0 || result_.offered != 0) {
    throw Error(
        "Mp5Simulator::resume requires a freshly constructed simulator");
  }
  const CheckpointInfo info = parse_checkpoint(checkpoint_blob);
  const std::uint64_t expect = config_fingerprint(*prog_, opts_);
  if (info.fingerprint != expect) {
    throw Error(
        "checkpoint configuration fingerprint mismatch: the checkpoint was "
        "taken under a different program or semantic simulator options");
  }
  // work_remaining()/next_event_cycle() peek the source during the restored
  // walk, so bind it before replaying state.
  source_ = &source;
  ByteReader r(info.payload);
  std::uint64_t consumed = 0;
  Cycle now = 0;
  try {
    now = restore_state(r, consumed);
    r.expect_done();
  } catch (...) {
    source_ = nullptr;
    throw;
  }
  if (now != info.cycle) {
    source_ = nullptr;
    throw Error("checkpoint corrupted (frame/payload cycle mismatch)");
  }
  source.skip_to(consumed);
  if (opts_.checkpoint_interval != 0) {
    // Never re-emit the checkpoint we restored from: the next boundary is
    // strictly after `now`.
    next_checkpoint_ = ((now / opts_.checkpoint_interval) + 1) *
                       opts_.checkpoint_interval;
  }
  return run_loop(source, now);
}

} // namespace mp5
