#include "mp5/checkpoint.hpp"

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

Cycle resume_checkpoint(std::string_view blob, std::uint64_t fingerprint,
                        std::uint64_t checkpoint_interval,
                        Cycle& next_checkpoint,
                        const std::function<Cycle(ByteReader&)>& restore) {
  const CheckpointInfo info = parse_checkpoint(blob);
  if (info.fingerprint != fingerprint) {
    throw Error(
        "checkpoint configuration fingerprint mismatch: the checkpoint was "
        "taken under a different program, design variant or semantic "
        "simulator options");
  }
  ByteReader r(info.payload);
  const Cycle now = restore(r);
  r.expect_done();
  if (now != info.cycle) {
    throw Error("checkpoint corrupted (frame/payload cycle mismatch)");
  }
  if (checkpoint_interval != 0) {
    // Never re-emit the checkpoint we restored from: the next boundary is
    // strictly after `now`.
    next_checkpoint = ((now / checkpoint_interval) + 1) * checkpoint_interval;
  }
  return now;
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
  fp.u64(options.seed);
  // Payload revision: 3 since the result carries no egress or fault-drop
  // log and no per-flow egress map (2 made the named counts bare values,
  // 1 added the two histograms), so an older checkpoint is refused.
  fp.u32(3);
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
  fp.b(true); // C1 tracking, once a knob
  // Payload revision: 2 since the result carries no egress log (1 made
  // the C1 table dense), so an older checkpoint is refused.
  fp.u32(2);
  hash_program_shape(fp, program);
  return fp.h;
}

// ---------------------------------------------------------------------------
// Mp5Simulator state serialization
// ---------------------------------------------------------------------------

template <class Io>
void Mp5Simulator::transfer(Io& io, Cycle& now, std::uint64_t& consumed) {
  io.u64(now);
  io.u64(next_seq_);
  io.u64(live_packets_);
  io.u64(consumed);

  result_.transfer(io);
  arena_.transfer(io);
  state_->transfer(io);

  io.size_equal(fifos_.size(), "checkpoint: stage-FIFO grid size mismatch");
  for (StageFifo& fifo : fifos_) fifo.transfer(io);
  // Fault-plan pressure clamps are re-applied below once current_pressure_
  // is known (StageFifo restores content, not the transient clamp).

  // Per-cell arrival slots: only the occupied prefix of each stride.
  for (std::size_t c = 0; c < arrival_count_.size(); ++c) {
    io.u32(arrival_count_[c]);
    io.check(arrival_count_[c] <= k_,
             "checkpoint: arrival slot count exceeds stride");
    for (std::uint32_t i = 0; i < arrival_count_[c]; ++i) {
      ArrivedRef& a = arrival_slots_[c * k_ + i];
      io.u32(a.ref);
      io.u32(a.from_lane);
      io.check(arena_.live(a.ref),
               "checkpoint: arrival slot references a dead packet");
      io.check(a.from_lane < k_, "checkpoint: arrival slot lane out of range");
    }
  }

  for (auto& q : ingress_) {
    io.seq(q, 4, [&](PacketRef& ref) {
      io.u32(ref);
      io.check(arena_.live(ref),
               "checkpoint: ingress queue references a dead packet");
    });
  }

  // Phantom channel: slots (including dead ones — the freelist references
  // them by position), freelist in exact order (it decides the next slot
  // recycled), and the heap's raw array (stale lazy-deletion entries and
  // all; the array *is* the heap). channel_index_ and channel_live_ are
  // derived and rebuilt on restore.
  io.seq(channel_slots_, 37, [&](PendingPhantom& rec) {
    io.u64(rec.seq);
    io.u32(rec.reg);
    io.u32(rec.index);
    io.u32(rec.pipeline);
    io.u32(rec.stage);
    io.u32(rec.lane);
    io.boolean(rec.cancelled);
    io.u64(rec.stamp);
    io.check(rec.stamp == 0 || (rec.pipeline < k_ && rec.stage < num_stages_),
             "checkpoint: channel record addresses an invalid cell");
  });
  io.seq(channel_free_, 4, [&](std::uint32_t& slot) {
    io.u32(slot);
    io.check(slot < channel_slots_.size() && channel_slots_[slot].stamp == 0,
             "checkpoint: channel freelist references a live slot");
  });
  io.seq(channel_heap_, 28, [&](ChannelDue& due) {
    io.u64(due.deliver);
    io.u64(due.seq);
    io.u32(due.slot);
    io.u64(due.stamp);
    io.check(due.slot < channel_slots_.size(),
             "checkpoint: channel heap entry out of range");
  });
  io.u64(channel_next_stamp_);
  if constexpr (Io::kLoad) {
    channel_index_.clear();
    channel_live_ = 0;
    for (std::uint32_t i = 0; i < channel_slots_.size(); ++i) {
      const PendingPhantom& rec = channel_slots_[i];
      if (rec.stamp == 0) continue;
      channel_index_[ChannelKey{rec.seq, rec.pipeline, rec.stage}] = i;
      ++channel_live_;
    }
    due_scratch_.clear();
  }

  for (auto& lane_set : lost_phantoms_) {
    io.sorted(
        lane_set, 16,
        [&](ChannelKey& key) {
          io.u64(key.seq);
          io.u32(key.pipeline);
          io.u32(key.stage);
        },
        [](const ChannelKey& a, const ChannelKey& b) {
          return std::tie(a.seq, a.pipeline, a.stage) <
                 std::tie(b.seq, b.pipeline, b.stage);
        });
  }

  io.u64(fault_cursor_);
  io.check(fault_cursor_ <= fault_sched_.lane_events().size(),
           "checkpoint: fault cursor past the end of the schedule");
  std::array<std::uint64_t, 4> rng_state = fault_rng_.state();
  for (std::uint64_t& word : rng_state) io.u64(word);
  io.u64(current_pressure_);
  for (PipelineId p = 0; p < k_; ++p) io.boolean(lane_alive_[p]);
  io.u64(fail_marker_);
  io.boolean(awaiting_egress_after_failure_);
  if constexpr (Io::kLoad) {
    fault_rng_.set_state(rng_state);
    for (StageFifo& fifo : fifos_) {
      fifo.set_pressure_capacity(current_pressure_);
    }
  }

  c1_.transfer(io);

  // The counts SimResult has no field for (SimResult itself travels
  // above), in named_counts() order, whether or not telemetry is attached.
  for (const auto& count : named_counts()) io.u64(*count.second);

  depth_on_push_.transfer(io);
  egress_latency_.transfer(io);

  // The activity bitmap is derived state (never serialized): rebuild it
  // from the restored FIFO/arrival occupancy.
  if constexpr (Io::kLoad) rebuild_activity();
}

std::string Mp5Simulator::serialize_state(Cycle now) {
  ByteWriter w;
  SaveIo io(w);
  std::uint64_t consumed = source_ != nullptr ? source_->consumed() : 0;
  transfer(io, now, consumed);
  return w.take();
}

Cycle Mp5Simulator::restore_state(ByteReader& r,
                                  std::uint64_t& trace_consumed) {
  LoadIo io(r);
  Cycle now = 0;
  transfer(io, now, trace_consumed);
  return now;
}

void Mp5Simulator::do_checkpoint(Cycle now) {
  // The payload carries blocked_cycles as a walk that counted every
  // blocked cycle would have it: each open span is counted up to `now`
  // and restarts there, its cell still asleep. The restoring simulator
  // wakes every occupied cell instead (rebuild_activity).
  for (std::size_t c = 0; c < blocked_since_.size(); ++c) {
    if (blocked_since_[c] == kAwake) continue;
    close_blocked_span(c, now);
    blocked_since_[c] = now;
  }
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
  // work_remaining()/next_event_cycle() peek the source during the restored
  // walk, so bind it before replaying state.
  source_ = &source;
  std::uint64_t consumed = 0;
  Cycle now = 0;
  try {
    now = resume_checkpoint(
        checkpoint_blob, config_fingerprint(*prog_, opts_),
        opts_.checkpoint_interval, next_checkpoint_,
        [&](ByteReader& r) { return restore_state(r, consumed); });
    // The listings check framing; the invariant walk decides whether the
    // restored state is one the simulator could have reached. It runs
    // once here whatever paranoid_checks says.
    try {
      check_invariants(now);
    } catch (const InvariantError& e) {
      throw Error(std::string("checkpoint: restored state is invalid: ") +
                  e.what());
    }
  } catch (...) {
    source_ = nullptr;
    throw;
  }
  source.skip_to(consumed);
  return run_loop(source, now);
}

} // namespace mp5
