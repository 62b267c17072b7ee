// mp5-checkpoint v1 (ISSUE 6): framing robustness and the bit-identity
// contract — restoring any emitted checkpoint, under any engine
// configuration, must reproduce the uninterrupted run's SimResult
// field-by-field, for every matrix cell and fault plan.
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "baseline/replicated.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "fuzz/differ.hpp"
#include "goldens.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/simulator.hpp"
#include "packet/arena.hpp"
#include "soak/soak_runner.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_source.hpp"
#include "test_util.hpp"

namespace mp5 {
namespace {

TEST(CheckpointFraming, RoundTrips) {
  const std::string frame = frame_checkpoint(0xDEADBEEF, 1234, "payload!");
  const CheckpointInfo info = parse_checkpoint(frame);
  EXPECT_EQ(info.fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(info.cycle, 1234u);
  EXPECT_EQ(info.payload, "payload!");
  EXPECT_EQ(framed_size(frame), frame.size());
}

TEST(CheckpointFraming, SplitsConcatenatedFrames) {
  const std::string a = frame_checkpoint(1, 10, "first payload");
  const std::string b = frame_checkpoint(1, 20, "second");
  const std::string file = a + b;
  const std::size_t split = framed_size(file);
  ASSERT_EQ(split, a.size());
  EXPECT_EQ(parse_checkpoint(std::string_view(file).substr(0, split)).cycle,
            10u);
  EXPECT_EQ(parse_checkpoint(std::string_view(file).substr(split)).cycle,
            20u);
  EXPECT_THROW(framed_size(std::string_view(file).substr(0, 20)), Error);
  EXPECT_THROW(framed_size(std::string_view(a).substr(0, a.size() - 1)),
               Error);
}

void expect_error_containing(const std::string& blob, const char* needle) {
  try {
    parse_checkpoint(blob);
    FAIL() << "expected Error mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFraming, RejectsCorruption) {
  const std::string frame = frame_checkpoint(7, 99, "some payload bytes");
  const std::size_t header = kCheckpointMagic.size() + 4 + 8 + 8 + 8;

  std::string flipped = frame;
  flipped[header + 3] ^= 0x01; // one payload bit
  expect_error_containing(flipped, "checksum mismatch");

  std::string flipped_cycle = frame;
  flipped_cycle[kCheckpointMagic.size() + 4 + 8] ^= 0x01; // header field
  expect_error_containing(flipped_cycle, "checksum mismatch");

  expect_error_containing(frame.substr(0, 20), "truncated");
  expect_error_containing(frame.substr(0, frame.size() - 5),
                          "checksum mismatch");

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  expect_error_containing(bad_magic, "bad magic");

  // A well-formed frame from a future format version: correct checksum,
  // version field = 2. Must be rejected by version, not by checksum.
  ByteWriter w;
  w.bytes(kCheckpointMagic.data(), kCheckpointMagic.size());
  w.u32(2);
  w.u64(7);
  w.u64(99);
  w.u64(4);
  w.bytes("abcd", 4);
  w.u64(fnv1a(w.buffer()));
  expect_error_containing(w.take(), "unsupported checkpoint version");
}

TEST(CheckpointFingerprint, CoversSemanticsNotEngineKnobs) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  SimOptions base;
  const std::uint64_t fp = config_fingerprint(prog, base);

  // Engine knobs are excluded by design: a checkpoint restores into a run
  // with another cadence, cycle budget or watchdog setting.
  SimOptions engine = base;
  engine.checkpoint_interval = 1000;
  engine.max_cycles = 42;
  engine.paranoid_checks = true;
  EXPECT_EQ(config_fingerprint(prog, engine), fp);

  SimOptions k8 = base;
  k8.pipelines = 8;
  EXPECT_NE(config_fingerprint(prog, k8), fp);

  SimOptions seeded = base;
  seeded.seed = 2;
  EXPECT_NE(config_fingerprint(prog, seeded), fp);

  SimOptions faulty = base;
  faulty.faults.pipeline_faults.push_back({1, 100, 500});
  EXPECT_NE(config_fingerprint(prog, faulty), fp);
}

TEST(CheckpointFingerprint, Mp5GoldenValues) {
  // Pinned values: a change that moves an MP5 fingerprint makes every
  // checkpoint written before it refuse to restore.
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  SimOptions faulty = mp5_options(4, 1);
  faulty.faults.pipeline_faults.push_back({1, 100, 500});
  test::expect_golden("fingerprint_mp5",
                      config_fingerprint(prog, mp5_options(4, 1)));
  test::expect_golden("fingerprint_mp5_faults",
                      config_fingerprint(prog, faulty));
}

TEST(CheckpointFingerprint, ReplicatedGoldenValues) {
  // Pinned like the MP5 values above: a change that moves one makes every
  // SCR/relaxed checkpoint written before it refuse to restore.
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  test::expect_golden("fingerprint_scr",
                      config_fingerprint(prog, scr_options(4)));
  test::expect_golden("fingerprint_relaxed64",
                      config_fingerprint(prog, relaxed_options(4, 64)));
}

TEST(CheckpointFingerprint, CoversVariantAndStaleness) {
  // The design variant and its staleness bound are semantic state layout:
  // a checkpoint taken under one must never restore under another
  // (ISSUE 10 satellite).
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  const std::uint64_t mp5_fp = config_fingerprint(prog, mp5_options(4, 1));
  const std::uint64_t scr_fp = config_fingerprint(prog, scr_options(4));
  const std::uint64_t rel64_fp =
      config_fingerprint(prog, relaxed_options(4, 64));
  const std::uint64_t rel128_fp =
      config_fingerprint(prog, relaxed_options(4, 128));
  EXPECT_NE(scr_fp, mp5_fp);
  EXPECT_NE(rel64_fp, mp5_fp);
  EXPECT_NE(rel64_fp, scr_fp);
  EXPECT_NE(rel128_fp, rel64_fp);

  // Engine knobs stay excluded for the replicated variants too.
  ReplicatedOptions cadence = scr_options(4);
  cadence.checkpoint_interval = 1000;
  EXPECT_EQ(config_fingerprint(prog, cadence), scr_fp);
}

// -- bit-identity property test --------------------------------------------

struct NamedPlan {
  const char* name;
  FaultPlan plan;
};

std::vector<NamedPlan> fault_plans() {
  std::vector<NamedPlan> plans;
  plans.push_back({"fault-free", {}});
  {
    FaultPlan p;
    p.pipeline_faults.push_back({1, 60, 240});
    plans.push_back({"lane-fail-recover", p});
  }
  {
    FaultPlan p;
    p.stalls.push_back({0, 1, 30, 120});
    p.fifo_pressure.push_back({50, 150, 2});
    plans.push_back({"stall-and-pressure", p});
  }
  {
    FaultPlan p;
    p.phantom_loss_rate = 0.2;
    p.phantom_delay_rate = 0.2;
    p.phantom_extra_delay = 3;
    plans.push_back({"phantom-loss-delay", p});
  }
  return plans;
}

TEST(CheckpointRestore, BitIdentityAcrossMatrixAndFaultPlans) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(21);
  const Trace trace = test::trace_from_fields(
      test::random_fields(500, prog.pvsm.num_slots(), 64, rng),
      /*pipelines=*/4, /*load=*/0.9);

  std::vector<fuzz::SimConfig> cells = fuzz::quick_config_matrix();
  {
    fuzz::SimConfig bounded; // drops via bounded FIFOs must checkpoint too
    bounded.fifo_capacity = 4;
    cells.push_back(bounded);
  }

  for (const fuzz::SimConfig& cell : cells) {
    for (const NamedPlan& plan : fault_plans()) {
      SCOPED_TRACE(cell.name() + " / " + plan.name);
      SimOptions opts = cell.to_options();
      opts.faults = plan.plan;

      const test::StreamedRun baseline = test::run_streamed(prog, trace, opts);

      // Re-run with periodic checkpoints: the cadence must be invisible.
      std::vector<test::CheckpointFrame> frames;
      test::expect_same_run(
          baseline,
          test::run_checkpointing(
              prog, trace, opts,
              std::max<std::uint64_t>(1, baseline.result.cycles_run / 4),
              frames));
      ASSERT_FALSE(frames.empty());

      // Every emitted checkpoint must restore to the identical SimResult
      // and emit the rest of the uninterrupted run's streams.
      for (const test::CheckpointFrame& frame : frames) {
        test::expect_resumes(prog, trace, opts, frame, baseline);
      }
    }
  }
}

TEST(CheckpointRestore, CrossEngineRestore) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(31);
  const Trace trace = test::trace_from_fields(
      test::random_fields(400, prog.pvsm.num_slots(), 64, rng), 4);

  SimOptions opts;
  opts.paranoid_checks = true;
  std::vector<test::CheckpointFrame> frames;
  const test::StreamedRun baseline = test::run_checkpointing(
      prog, trace, opts, test::run_streamed(prog, trace, opts).result.cycles_run / 2,
      frames);
  ASSERT_FALSE(frames.empty());

  // The fingerprint excludes engine knobs, so the checkpoint restores
  // under a differently configured engine — watchdog off, telemetry
  // attached, checkpointing at its own cadence — which rebuilds its
  // activity bitmap from the restored occupancy and still reproduces the
  // uninterrupted result bit for bit.
  for (const char* variant : {"no-watchdog", "telemetry", "own-cadence"}) {
    SCOPED_TRACE(variant);
    SimOptions vopts = opts;
    telemetry::Telemetry telem;
    if (std::string(variant) == "no-watchdog") vopts.paranoid_checks = false;
    if (std::string(variant) == "telemetry") vopts.telemetry = &telem;
    if (std::string(variant) == "own-cadence") {
      vopts.checkpoint_interval =
          std::max<std::uint64_t>(1, baseline.result.cycles_run / 3);
      vopts.checkpoint_sink = [](Cycle, std::string&&) {};
    }
    test::expect_resumes(prog, trace, vopts, frames.front(), baseline);
  }
}

TEST(CheckpointRestore, RejectsMismatchAndReuse) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(41);
  const Trace trace = test::trace_from_fields(
      test::random_fields(200, prog.pvsm.num_slots(), 64, rng), 4);

  SimOptions opts;
  std::vector<std::string> blobs;
  SimOptions copts = opts;
  copts.checkpoint_interval = 40;
  copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
    blobs.push_back(std::move(blob));
  };
  (void)Mp5Simulator(prog, copts).run(trace);
  ASSERT_FALSE(blobs.empty());
  const std::string& blob = blobs.front();

  // Same payload, different fingerprint: the restore must refuse instead
  // of trusting the payload to fit.
  const CheckpointInfo info = parse_checkpoint(blob);
  const std::string reframed = frame_checkpoint(
      info.fingerprint ^ 1, info.cycle, std::string(info.payload));
  {
    Mp5Simulator sim(prog, opts);
    VectorTraceSource source(trace);
    EXPECT_THROW(sim.resume(source, reframed), Error);
  }

  // A simulator that already ran cannot be restored into.
  {
    Mp5Simulator sim(prog, opts);
    (void)sim.run(trace);
    VectorTraceSource source(trace);
    EXPECT_THROW(sim.resume(source, blob), Error);
  }

  // Garbage blobs fail framing validation before touching the payload.
  {
    Mp5Simulator sim(prog, opts);
    VectorTraceSource source(trace);
    EXPECT_THROW(sim.resume(source, "definitely not a checkpoint"), Error);
  }
}

// -- replicated-variant checkpointing (ISSUE 10) ---------------------------

/// Resume `sim` from `blob`, streaming the packets of `trace`.
template <class Sim>
SimResult resume_over(Sim&& sim, const Trace& trace, std::string_view blob) {
  VectorTraceSource source(trace);
  return sim.resume(source, blob);
}

TEST(CheckpointRestore, ReplicatedBitIdentity) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(51);
  const Trace trace = test::trace_from_fields(
      test::random_fields(400, prog.pvsm.num_slots(), 64, rng),
      /*pipelines=*/4, /*load=*/0.9);

  for (const ReplicatedOptions& base :
       {scr_options(4), relaxed_options(4, 32)}) {
    SCOPED_TRACE("staleness " + std::to_string(base.staleness_bound));
    ReplicatedOptions opts = base;
    opts.paranoid_checks = true;
    const test::StreamedRun baseline =
        test::run_streamed<ReplicatedSimulator>(prog, trace, opts);

    std::vector<test::CheckpointFrame> frames;
    test::expect_same_run(
        baseline,
        test::run_checkpointing<ReplicatedSimulator>(
            prog, trace, opts,
            std::max<std::uint64_t>(1, baseline.result.cycles_run / 4),
            frames));
    ASSERT_FALSE(frames.empty());

    // Every emitted checkpoint restores to the identical SimResult and the
    // rest of the streams, with the watchdog either on or off in the
    // restoring simulator.
    for (const test::CheckpointFrame& frame : frames) {
      for (const bool paranoid : {true, false}) {
        SCOPED_TRACE(paranoid ? "paranoid" : "no watchdog");
        ReplicatedOptions ropts = base;
        ropts.paranoid_checks = paranoid;
        test::expect_resumes<ReplicatedSimulator>(prog, trace, ropts, frame,
                                                  baseline);
      }
    }
  }
}

TEST(CheckpointRestore, ReplicatedRefusesCrossVariantRestore) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(61);
  const Trace trace = test::trace_from_fields(
      test::random_fields(300, prog.pvsm.num_slots(), 64, rng), 4);

  std::vector<std::string> blobs;
  ReplicatedOptions copts = scr_options(4);
  copts.checkpoint_interval = 40;
  copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
    blobs.push_back(std::move(blob));
  };
  (void)ReplicatedSimulator(prog, copts).run(trace);
  ASSERT_FALSE(blobs.empty());
  const std::string& scr_blob = blobs.front();

  // An SCR checkpoint must not restore into a relaxed simulator, into the
  // MP5 simulator, or into SCR at a different pipeline count.
  {
    ReplicatedSimulator sim(prog, relaxed_options(4, 32));
    EXPECT_THROW((void)resume_over(sim, trace, scr_blob), Error);
  }
  {
    SimOptions mp5 = mp5_options(4, 1);
    Mp5Simulator sim(prog, mp5);
    VectorTraceSource source(trace);
    EXPECT_THROW((void)sim.resume(source, scr_blob), Error);
  }
  {
    ReplicatedSimulator sim(prog, scr_options(8));
    EXPECT_THROW((void)resume_over(sim, trace, scr_blob), Error);
  }

  // Two relaxed runs differing only in Δ must refuse each other's blobs.
  std::vector<std::string> rel_blobs;
  ReplicatedOptions rel_copts = relaxed_options(4, 64);
  rel_copts.checkpoint_interval = 40;
  rel_copts.checkpoint_sink = [&rel_blobs](Cycle, std::string&& blob) {
    rel_blobs.push_back(std::move(blob));
  };
  (void)ReplicatedSimulator(prog, rel_copts).run(trace);
  ASSERT_FALSE(rel_blobs.empty());
  {
    ReplicatedSimulator sim(prog, relaxed_options(4, 128));
    EXPECT_THROW((void)resume_over(sim, trace, rel_blobs.front()), Error);
  }

  // Reuse and garbage are refused like the MP5 path.
  {
    ReplicatedSimulator sim(prog, scr_options(4));
    (void)sim.run(trace);
    EXPECT_THROW((void)resume_over(sim, trace, scr_blob), Error);
  }
  {
    ReplicatedSimulator sim(prog, scr_options(4));
    EXPECT_THROW((void)resume_over(sim, trace, "not a checkpoint"), Error);
  }
}


// -- whole-frame payload goldens --------------------------------------------
//
// FNV-1a of complete framed checkpoints taken mid-run, with packets in
// flight: a change to any class's checkpoint listing (field order, width,
// a dropped or added field) moves one of these. Each case also restores
// its frame, so a golden never pins a frame that fails to resume.

/// The frame a `Sim` run checkpointing every `interval` cycles emits at
/// cycle `at`, checked to resume to the uninterrupted run.
template <class Sim = Mp5Simulator, class Options>
std::string frame_at(const Mp5Program& prog, const Trace& trace, Options opts,
                     Cycle interval, Cycle at) {
  opts.paranoid_checks = true;
  std::vector<test::CheckpointFrame> frames;
  const test::StreamedRun whole =
      test::run_checkpointing<Sim>(prog, trace, opts, interval, frames);
  const auto frame =
      std::find_if(frames.begin(), frames.end(),
                   [at](const test::CheckpointFrame& f) { return f.cycle == at; });
  if (frame == frames.end()) {
    ADD_FAILURE() << "no checkpoint at cycle " << at;
    return {};
  }
  test::expect_resumes<Sim>(prog, trace, opts, *frame, whole);
  return frame->blob;
}

Trace app_trace(const apps::AppSpec& app, std::uint64_t packets,
                double load) {
  FlowWorkloadConfig config;
  config.pipelines = 4;
  config.packets = packets;
  config.load = load;
  config.small_bytes = 64; // minimum-size packets: many in flight at once
  config.large_bytes = 64;
  config.seed = 7;
  return make_flow_trace(config, app.filler);
}

TEST(CheckpointPayloadGolden, Mp5Frames) {
  const apps::AppSpec flowlet = apps::flowlet_app();
  const apps::AppSpec conga = apps::conga_app();
  const Mp5Program flowlet_prog = test::compile_mp5(flowlet.source);
  const Mp5Program conga_prog = test::compile_mp5(conga.source);
  const Trace flowlet_trace = app_trace(flowlet, 1500, 1.0);
  const Trace conga_trace = app_trace(conga, 1500, 1.0);

  struct Case {
    const char* name;
    const Mp5Program* prog;
    const Trace* trace;
    SimOptions opts;
  };
  std::vector<Case> cases;
  cases.push_back({"frame_mp5", &flowlet_prog, &flowlet_trace,
                   mp5_options(4, 1)});
  {
    // Phantom loss, delay, a lane fail/recover, a stall and FIFO pressure
    // all active at cycle 300: the channel rings, the delayed queue, lost
    // phantoms and the fault RNG are all populated.
    SimOptions o = mp5_options(4, 1);
    o.faults.phantom_loss_rate = 0.1;
    o.faults.phantom_delay_rate = 0.2;
    o.faults.phantom_extra_delay = 4;
    o.faults.pipeline_faults.push_back({2, 150, 450});
    o.faults.stalls.push_back({1, 2, 100, 400});
    o.faults.fifo_pressure.push_back({200, 500, 2});
    cases.push_back({"frame_conga_faults", &conga_prog, &conga_trace, o});
  }
  cases.push_back({"frame_ideal", &flowlet_prog, &flowlet_trace,
                   ideal_options(4, 1)});
  {
    SimOptions o = no_d4_options(4, 1);
    o.fifo_capacity = 2;
    cases.push_back({"frame_no_d4_cap2", &flowlet_prog, &flowlet_trace, o});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string frame = frame_at(*c.prog, *c.trace, c.opts, 100, 300);
    test::expect_golden(c.name, fnv1a(frame));
  }
}

TEST(CheckpointPayloadGolden, ReplicatedFrames) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(71);
  const Trace trace = test::trace_from_fields(
      test::random_fields(600, prog.pvsm.num_slots(), 64, rng), 4, 0.9);
  struct Case {
    ReplicatedOptions opts;
    const char* row;
  };
  for (const Case& c : {Case{scr_options(4), "frame_scr"},
                        Case{relaxed_options(4, 8), "frame_relaxed8"}}) {
    SCOPED_TRACE(c.opts.staleness_bound);
    const std::string frame =
        frame_at<ReplicatedSimulator>(prog, trace, c.opts, 50, 100);
    test::expect_golden(c.row, fnv1a(frame));
  }
}

TEST(CheckpointPayloadGolden, SoakFileWithVerifierFrame) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  SyntheticSpec spec;
  spec.packets = 1500;
  spec.pipelines = 4;
  spec.field_count = static_cast<std::uint32_t>(prog.pvsm.num_slots());
  spec.field_bound = 64;
  spec.seed = 5;
  soak::SoakOptions opts;
  opts.traffic = [spec] { return std::make_unique<SyntheticTraceSource>(spec); };
  opts.checkpoint_interval = 150;
  opts.checkpoint_path = test::temp_path("payload_golden.ckpt");
  const soak::SoakReport report = soak::run_soak(prog, opts);
  ASSERT_TRUE(report.verified);
  const std::string file = read_checkpoint_file(opts.checkpoint_path);
  const std::size_t sim_len = framed_size(file);
  ASSERT_LT(sim_len, file.size()) << "no verifier frame";
  test::expect_golden("frame_soak_file_with_verifier", fnv1a(file));
}


// -- load-side checks ---------------------------------------------------------
//
// The checksum rejects any flipped byte before a payload is read, so these
// re-frame corrupted payloads with a valid checksum and fingerprint: the
// listings' load-side checks are then all that stands between a corrupted
// field and the simulator. Each restoring simulator's max_cycles is the
// checkpoint cycle, so resume() stops right after the restore; its
// "max_cycles exceeded" error (or a finished result) means the payload
// restored.

struct SweepOutcome {
  std::uint64_t restored = 0;
  std::set<std::string> rejected; // distinct load-side error messages
};

/// Resume every single-byte corruption (low bit flipped, byte inverted) of
/// `frame`'s payload. Every outcome must be a restore or an mp5::Error.
template <class Resume>
SweepOutcome sweep_payload(const std::string& frame, Resume&& resume) {
  const CheckpointInfo info = parse_checkpoint(frame);
  const std::string payload(info.payload);
  SweepOutcome out;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned mask : {0x01u, 0xffu}) {
      std::string bad = payload;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ mask);
      try {
        resume(frame_checkpoint(info.fingerprint, info.cycle, bad));
        ++out.restored;
      } catch (const Error& e) {
        const std::string what = e.what();
        if (what.find("max_cycles exceeded") != std::string::npos) {
          ++out.restored;
        } else {
          out.rejected.insert(what);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "byte " << i << " ^ " << mask
                      << ": not an mp5::Error: " << e.what();
      }
    }
  }
  return out;
}

bool saw(const SweepOutcome& out, const std::string& needle) {
  for (const std::string& what : out.rejected) {
    if (what.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string resume_error(const std::function<void()>& resume) {
  try {
    resume();
  } catch (const Error& e) {
    return e.what();
  }
  return "(restored)";
}

TEST(CheckpointCorruption, Mp5PayloadRestoresOrThrowsError) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(2, 8));
  Rng rng(81);
  const Trace trace = test::trace_from_fields(
      test::random_fields(24, prog.pvsm.num_slots(), 8, rng), 4);
  SimOptions opts = mp5_options(4, 1);
  std::string frame;
  SimOptions copts = opts;
  copts.checkpoint_interval = 4;
  copts.checkpoint_sink = [&frame](Cycle c, std::string&& blob) {
    if (c == 8) frame = std::move(blob);
  };
  (void)Mp5Simulator(prog, copts).run(trace);
  ASSERT_FALSE(frame.empty());
  const CheckpointInfo info = parse_checkpoint(frame);
  SimOptions ropts = opts;
  ropts.max_cycles = info.cycle;
  auto resume = [&](const std::string& blob) {
    Mp5Simulator sim(prog, ropts);
    VectorTraceSource source(trace);
    (void)sim.resume(source, blob);
  };

  const SweepOutcome out = sweep_payload(frame, resume);
  EXPECT_GT(out.restored, 0u);
  EXPECT_TRUE(saw(out, "checkpoint: arrival slot references a dead packet"));
  EXPECT_TRUE(
      saw(out, "checkpoint: channel phantom addresses an invalid cell"));
  EXPECT_TRUE(saw(out, "checkpoint: histogram bucket count mismatch"));
  EXPECT_TRUE(saw(out, "exceeds remaining payload"));

  // Targeted: bytes past the listing, and a listing cut short.
  const std::string payload(info.payload);
  EXPECT_NE(resume_error([&] {
              resume(frame_checkpoint(info.fingerprint, info.cycle,
                                      payload + "x"));
            }).find("checkpoint payload has 1 trailing bytes"),
            std::string::npos);
  EXPECT_NE(resume_error([&] {
              resume(frame_checkpoint(info.fingerprint, info.cycle,
                                      payload.substr(0, payload.size() - 1)));
            }).find("checkpoint payload truncated"),
            std::string::npos);
}

TEST(CheckpointCorruption, OutOfRangePlannedAccessIsRefused) {
  // A payload re-framed with a valid checksum can give an in-flight
  // packet an access outside the program. Such a payload used to restore,
  // and the first stepped cycles then read and wrote out of bounds
  // (ShardedState::note_completed). The post-load invariant walk refuses
  // it; each restoring simulator may run to completion.
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(2, 8));
  Rng rng(81);
  const Trace trace = test::trace_from_fields(
      test::random_fields(24, prog.pvsm.num_slots(), 8, rng), 4);
  SimOptions opts = mp5_options(4, 1);
  std::string frame;
  SimOptions copts = opts;
  copts.checkpoint_interval = 4;
  copts.checkpoint_sink = [&frame](Cycle c, std::string&& blob) {
    if (c == 8) frame = std::move(blob);
  };
  (void)Mp5Simulator(prog, copts).run(trace);
  ASSERT_FALSE(frame.empty());
  const CheckpointInfo info = parse_checkpoint(frame);
  const std::string payload(info.payload);

  // Locate an in-flight packet with a pending access: restore (stopping
  // right after the load) and find the packet's listing in the payload.
  SimOptions probe_opts = opts;
  probe_opts.max_cycles = info.cycle;
  Mp5Simulator probe(prog, probe_opts);
  VectorTraceSource probe_source(trace);
  EXPECT_NE(resume_error([&] { (void)probe.resume(probe_source, frame); })
                .find("max_cycles exceeded"),
            std::string::npos);
  const auto listing = [](Packet pkt) {
    ByteWriter w;
    SaveIo io(w);
    transfer_packet(io, pkt);
    return w.take();
  };
  const PacketArena& arena = probe.arena();
  const Packet* victim = nullptr;
  std::size_t entry = 0;
  for (PacketRef ref = 0; ref < arena.slot_count() && victim == nullptr;
       ++ref) {
    if (!arena.live(ref)) continue;
    const Packet& pkt = arena.get(ref);
    for (std::size_t i = 0; i < pkt.plan.size(); ++i) {
      if (!pkt.plan[i].done && !pkt.plan[i].cancelled) {
        victim = &pkt;
        entry = i;
        break;
      }
    }
  }
  ASSERT_NE(victim, nullptr) << "no pending access at the checkpoint";
  const std::string original = listing(*victim);
  const std::size_t at = payload.find(original);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(original, at + 1), std::string::npos);

  const std::pair<const char*, void (*)(PlannedAccess&)> corruptions[] = {
      {"reg", [](PlannedAccess& a) { a.reg = 1000; }},
      {"index", [](PlannedAccess& a) { a.index = 1u << 20; }},
      {"pipeline", [](PlannedAccess& a) { a.pipeline = 9; }},
      {"stage", [](PlannedAccess& a) { a.stage = 99; }},
  };
  for (const auto& [field, corrupt] : corruptions) {
    SCOPED_TRACE(field);
    Packet bad = *victim;
    corrupt(bad.plan[entry]);
    std::string mutated = payload;
    mutated.replace(at, original.size(), listing(bad));
    const std::string what = resume_error([&] {
      SimOptions ropts = opts;
      ropts.max_cycles = 100'000;
      Mp5Simulator sim(prog, ropts);
      VectorTraceSource source(trace);
      (void)sim.resume(source, frame_checkpoint(info.fingerprint, info.cycle,
                                                mutated));
    });
    EXPECT_NE(what.find("checkpoint: restored state is invalid"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("[planned-access]"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

/// The checkpoint an MP5 run of `trace` under `opts` takes at cycle `at`.
std::string mp5_frame_at(const Mp5Program& prog, const Trace& trace,
                         SimOptions opts, Cycle at) {
  std::string frame;
  opts.checkpoint_interval = at;
  opts.checkpoint_sink = [&frame, at](Cycle c, std::string&& blob) {
    if (c == at) frame = std::move(blob);
  };
  (void)Mp5Simulator(prog, opts).run(trace);
  return frame;
}

/// `payload` re-framed with `info`'s fingerprint and cycle, resumed under
/// `opts` to completion: the error it throws, or "(restored)".
std::string resume_payload(const Mp5Program& prog, const Trace& trace,
                           SimOptions opts, const CheckpointInfo& info,
                           const std::string& payload) {
  return resume_error([&] {
    opts.max_cycles = 100'000;
    Mp5Simulator sim(prog, opts);
    VectorTraceSource source(trace);
    (void)sim.resume(source,
                     frame_checkpoint(info.fingerprint, info.cycle, payload));
  });
}

/// `payload` with its one copy of `from` replaced by `to`.
std::string replaced(std::string payload, const std::string& from,
                     const std::string& to) {
  const std::size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(payload.find(from, at + 1), std::string::npos);
  return at == std::string::npos ? payload
                                 : payload.replace(at, from.size(), to);
}

std::string listing(const Mp5Simulator::ChannelPhantom& ph) {
  ByteWriter w;
  save_fields(w, ph);
  return w.take();
}

TEST(CheckpointCorruption, ChannelOutOfOrderOrDeadLaneIsRefused) {
  // The channel listing checks framing (a phantom addressing a cell
  // outside the switch). Whether the rings hold a state the simulator
  // could have reached is the invariant walk's call: a ring out of seq
  // order, or a phantom bound for a dead lane, is refused.
  const Mp5Program prog =
      test::compile_mp5(apps::make_synthetic_source(3, 16));
  Rng rng(83);
  const Trace trace = test::trace_from_fields(
      test::random_fields(400, prog.pvsm.num_slots(), 16, rng), 4);
  SimOptions opts = mp5_options(4, 1);
  opts.faults.pipeline_faults.push_back({3, 20, 200}); // dead at cycle 40
  const std::string frame = mp5_frame_at(prog, trace, opts, 40);
  ASSERT_FALSE(frame.empty());
  const CheckpointInfo info = parse_checkpoint(frame);
  const std::string payload(info.payload);
  EXPECT_EQ(resume_payload(prog, trace, opts, info, payload), "(restored)");

  // Read the restored rings: a simulator stopped right after the load.
  SimOptions probe_opts = opts;
  probe_opts.max_cycles = info.cycle;
  Mp5Simulator probe(prog, probe_opts);
  VectorTraceSource probe_source(trace);
  EXPECT_NE(resume_error([&] { (void)probe.resume(probe_source, frame); })
                .find("max_cycles exceeded"),
            std::string::npos);
  const RingFifo<Mp5Simulator::ChannelPhantom>* ring = nullptr;
  for (const auto& r : probe.channel()) {
    if (r.size() >= 2 &&
        r.at(r.base_vidx()).seq != r.at(r.base_vidx() + 1).seq) {
      ring = &r;
      break;
    }
  }
  ASSERT_NE(ring, nullptr) << "no ring holds two packets' phantoms";
  const Mp5Simulator::ChannelPhantom first = ring->at(ring->base_vidx());
  const Mp5Simulator::ChannelPhantom second = ring->at(ring->base_vidx() + 1);

  const auto expect_refused = [&](const std::string& mutated,
                                  const char* detail) {
    const std::string what = resume_payload(prog, trace, opts, info, mutated);
    EXPECT_NE(what.find("checkpoint: restored state is invalid"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("[phantom-channel]"), std::string::npos) << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  };
  {
    SCOPED_TRACE("out of seq order");
    expect_refused(replaced(payload, listing(first) + listing(second),
                            listing(second) + listing(first)),
                   "follows seq");
  }
  {
    SCOPED_TRACE("bound for a dead lane");
    Mp5Simulator::ChannelPhantom dead = first;
    dead.pipeline = 3;
    expect_refused(replaced(payload, listing(first), listing(dead)),
                   "dead lane 3");
  }
  {
    SCOPED_TRACE("outside the switch");
    Mp5Simulator::ChannelPhantom outside = first;
    outside.stage = 99;
    EXPECT_NE(resume_payload(prog, trace, opts, info,
                             replaced(payload, listing(first),
                                      listing(outside)))
                  .find("checkpoint: channel phantom addresses an invalid "
                        "cell"),
              std::string::npos);
  }
}

TEST(CheckpointCorruption, ExecutionOffThePlanIsCaught) {
  // Plan equals execution: under paranoid_checks every state access runs
  // at the register and index its packet planned at arrival, the plan its
  // phantom and steering followed. A restored packet whose planned index
  // is shifted by one passes the load and the invariant walk (the index
  // is in range) and is caught when its access executes.
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(2, 8));
  Rng rng(81);
  const Trace trace = test::trace_from_fields(
      test::random_fields(24, prog.pvsm.num_slots(), 8, rng), 4);
  SimOptions opts = mp5_options(4, 1);
  opts.paranoid_checks = true;
  // The unaltered run and its resume keep to their plans.
  EXPECT_NO_THROW((void)Mp5Simulator(prog, opts).run(trace));
  const std::string frame = mp5_frame_at(prog, trace, opts, 4);
  ASSERT_FALSE(frame.empty());
  const CheckpointInfo info = parse_checkpoint(frame);
  const std::string payload(info.payload);
  EXPECT_EQ(resume_payload(prog, trace, opts, info, payload), "(restored)");

  SimOptions probe_opts = opts;
  probe_opts.max_cycles = info.cycle;
  Mp5Simulator probe(prog, probe_opts);
  VectorTraceSource probe_source(trace);
  EXPECT_NE(resume_error([&] { (void)probe.resume(probe_source, frame); })
                .find("max_cycles exceeded"),
            std::string::npos);
  const auto packet_listing = [](Packet pkt) {
    ByteWriter w;
    SaveIo io(w);
    transfer_packet(io, pkt);
    return w.take();
  };
  const PacketArena& arena = probe.arena();
  for (PacketRef ref = 0; ref < arena.slot_count(); ++ref) {
    if (!arena.live(ref)) continue;
    const Packet& pkt = arena.get(ref);
    for (std::size_t i = 0; i < pkt.plan.size(); ++i) {
      const PlannedAccess& a = pkt.plan[i];
      if (a.done || a.cancelled || a.guard != GuardStatus::kTaken ||
          a.index == kUnresolvedIndex) {
        continue;
      }
      SCOPED_TRACE("seq " + std::to_string(pkt.seq));
      Packet shifted = pkt;
      shifted.plan[i].index =
          (a.index + 1) % prog.pvsm.registers[a.reg].size;
      const std::string what = resume_payload(
          prog, trace, opts, info,
          replaced(payload, packet_listing(pkt), packet_listing(shifted)));
      EXPECT_NE(what.find("[planned-access-executed]"), std::string::npos)
          << what;
      return;
    }
  }
  FAIL() << "no pending access at the checkpoint";
}

TEST(CheckpointCorruption, ReplicatedPayloadRestoresOrThrowsError) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(2, 8));
  Rng rng(91);
  const Trace trace = test::trace_from_fields(
      test::random_fields(24, prog.pvsm.num_slots(), 8, rng), 4);
  ReplicatedOptions opts = scr_options(4);
  std::string frame;
  ReplicatedOptions copts = opts;
  copts.checkpoint_interval = 4;
  copts.checkpoint_sink = [&frame](Cycle c, std::string&& blob) {
    if (c == 8) frame = std::move(blob);
  };
  (void)ReplicatedSimulator(prog, copts).run(trace);
  ASSERT_FALSE(frame.empty());
  const CheckpointInfo info = parse_checkpoint(frame);
  ReplicatedOptions ropts = opts;
  ropts.max_cycles = info.cycle;
  auto resume = [&](const std::string& blob) {
    (void)resume_over(ReplicatedSimulator(prog, ropts), trace, blob);
  };

  const SweepOutcome out = sweep_payload(frame, resume);
  EXPECT_GT(out.restored, 0u);
  EXPECT_TRUE(
      saw(out, "checkpoint: digest addresses an invalid stage or lane"));
  EXPECT_TRUE(saw(out, "checkpoint: packet header width mismatch"));

  const std::string payload(info.payload);
  EXPECT_NE(resume_error([&] {
              resume(frame_checkpoint(info.fingerprint, info.cycle,
                                      payload + "x"));
            }).find("checkpoint payload has 1 trailing bytes"),
            std::string::npos);
  EXPECT_NE(resume_error([&] {
              resume(frame_checkpoint(info.fingerprint, info.cycle,
                                      payload.substr(0, payload.size() - 1)));
            }).find("checkpoint payload truncated"),
            std::string::npos);
}

} // namespace
} // namespace mp5
