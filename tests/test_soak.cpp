// Soak subsystem: rolling verification semantics, its checkpointability,
// the end-to-end run_soak driver including resume-from-checkpoint
// bit-identity, and the baseline designs streaming into the same
// verifier.
#include <memory>
#include <optional>
#include <typeinfo>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "baseline/recirc.hpp"
#include "baseline/replicated.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "metrics/equivalence.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/simulator.hpp"
#include "soak/rolling_verify.hpp"
#include "soak/soak_runner.hpp"
#include "trace/trace_source.hpp"
#include "test_util.hpp"

namespace mp5 {
namespace {

Mp5Program soak_program() {
  return test::compile_mp5(apps::make_synthetic_source(3, 64));
}

Trace soak_trace(const Mp5Program& prog, std::size_t packets,
                 std::uint64_t seed) {
  Rng rng(seed);
  return test::trace_from_fields(
      test::random_fields(packets, prog.pvsm.num_slots(), 64, rng), 4);
}

std::unique_ptr<soak::RollingVerifier> make_verifier(
    const Mp5Program& prog, const Trace& trace,
    soak::RollingVerifyOptions opts = {}) {
  return std::make_unique<soak::RollingVerifier>(
      prog.pvsm, std::make_unique<VectorTraceSource>(trace), opts);
}

/// The end of a run over `offered` packets, as finish() reads it.
SimResult run_end(std::uint64_t offered,
                  std::vector<std::vector<Value>> registers) {
  SimResult result;
  result.offered = offered;
  result.final_registers = std::move(registers);
  return result;
}

/// Feed the i-th reference egress (correct headers) as an egress record.
void feed_reference_egress(soak::RollingVerifier& v, SeqNo seq,
                           const std::vector<Value>& headers) {
  EgressRecord rec;
  rec.seq = seq;
  rec.headers = headers;
  v.on_egress(std::move(rec));
}

TEST(RollingVerifier, AgreesWithBatchChecker) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 300, 5);

  auto verifier = make_verifier(prog, trace);
  SimOptions opts;
  opts.paranoid_checks = true;
  verifier->attach(opts);
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);
  const EquivalenceReport rolling = verifier->finish(result);
  EXPECT_TRUE(rolling.equivalent()) << rolling.first_difference;
  EXPECT_EQ(verifier->verified(), trace.size());
  EXPECT_FALSE(verifier->truncated());

  // The seq-indexed batch comparator, over the same run's egress rows.
  std::vector<std::vector<Value>> rows;
  opts.egress_sink = egress_by_seq_sink(rows);
  opts.fault_drop_sink = nullptr;
  const SimResult again = Mp5Simulator(prog, opts).run(trace);
  const EquivalenceReport batch =
      check_equivalence(prog.pvsm, test::run_reference(prog, trace),
                        again.final_registers, rows);
  EXPECT_EQ(rolling.equivalent(), batch.equivalent());
}

TEST(RollingVerifier, FlagsDuplicateEgress) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 10, 6);
  const auto ref = test::run_reference(prog, trace);

  auto verifier = make_verifier(prog, trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    feed_reference_egress(*verifier, i, ref.egress_headers[i]);
  }
  feed_reference_egress(*verifier, 0, ref.egress_headers[0]); // again
  const EquivalenceReport report =
      verifier->finish(run_end(trace.size(), ref.final_registers));
  EXPECT_FALSE(report.packets_equal);
  EXPECT_NE(report.first_difference.find("egressed 2 times"),
            std::string::npos)
      << report.first_difference;
}

TEST(RollingVerifier, FlagsWrongHeaders) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 10, 7);
  const auto ref = test::run_reference(prog, trace);

  auto verifier = make_verifier(prog, trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::vector<Value> headers = ref.egress_headers[i];
    if (i == 4) headers[0] += 1; // corrupt one declared field
    feed_reference_egress(*verifier, i, headers);
  }
  const EquivalenceReport report =
      verifier->finish(run_end(trace.size(), ref.final_registers));
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, 1u);
}

TEST(RollingVerifier, UntouchedDropSkipsReference) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 12, 8);
  // A drop with no state effects means the reference never sees the
  // packet: the correct downstream headers come from a reference run over
  // the trace minus the dropped packet.
  const Trace rest(trace.begin() + 1, trace.end());
  const auto ref = test::run_reference(prog, rest);

  auto verifier = make_verifier(prog, trace);
  verifier->on_fault_drop(0, /*state_touched=*/false);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    feed_reference_egress(*verifier, i + 1, ref.egress_headers[i]);
  }
  const EquivalenceReport report =
      verifier->finish(run_end(trace.size(), ref.final_registers));
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
  EXPECT_FALSE(verifier->truncated());
  EXPECT_EQ(verifier->verified(), rest.size());
}

TEST(RollingVerifier, StateTouchedDropTruncates) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 12, 9);
  const auto ref = test::run_reference(prog, trace);

  auto verifier = make_verifier(prog, trace);
  feed_reference_egress(*verifier, 0, ref.egress_headers[0]);
  verifier->on_fault_drop(1, /*state_touched=*/true);
  EXPECT_TRUE(verifier->truncated());
  // Everything after the truncation point is ignored, not accumulated.
  feed_reference_egress(*verifier, 2, ref.egress_headers[2]);
  const EquivalenceReport report =
      verifier->finish(run_end(trace.size(), ref.final_registers));
  EXPECT_EQ(verifier->verified(), 1u);
  EXPECT_NE(report.first_difference.find("truncated at seq 1"),
            std::string::npos)
      << report.first_difference;
}

TEST(RollingVerifier, FinishFlagsNeverEgressed) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 5, 10);
  auto verifier = make_verifier(prog, trace);
  const EquivalenceReport report = verifier->finish(run_end(trace.size(), {}));
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, trace.size());
}

TEST(RollingVerifier, FarOutOfRangeSeqLeavesTheWindowAlone) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 10, 13);
  const auto ref = test::run_reference(prog, trace);

  auto verifier = make_verifier(prog, trace);
  EgressRecord rec;
  rec.seq = 1000000; // the reference holds 10 packets
  verifier->on_fault_drop(999999, /*state_touched=*/false);
  verifier->on_egress(std::move(rec));
  EXPECT_EQ(verifier->window_peak(), 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    feed_reference_egress(*verifier, i, ref.egress_headers[i]);
  }
  const EquivalenceReport report =
      verifier->finish(run_end(trace.size(), ref.final_registers));
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, 2u);
  EXPECT_TRUE(report.registers_equal);
  EXPECT_NE(report.first_difference.find("out-of-range seq 999999"),
            std::string::npos)
      << report.first_difference;
}

/// A reference stream that does not know its length, as a CSV file's.
class UnsizedSource final : public TraceSource {
public:
  explicit UnsizedSource(const Trace& trace) : inner_(trace) {}
  const TraceItem* peek() override { return inner_.peek(); }
  void advance() override { inner_.advance(); }
  std::uint64_t consumed() const override { return inner_.consumed(); }
  void skip_to(std::uint64_t n) override { inner_.skip_to(n); }
  std::optional<std::uint64_t> size() const override { return std::nullopt; }

private:
  VectorTraceSource inner_;
};

TEST(RollingVerifier, FinishFlagsSeqsPastTheRunBehindAHole) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 10, 14);
  const auto ref = test::run_reference(prog, trace);

  soak::RollingVerifier verifier(prog.pvsm,
                                 std::make_unique<UnsizedSource>(trace));
  // Packet 5 never egresses, and a record names seq 11 of a 10-packet
  // run: it waits behind the hole at 5, and finish() must still count it.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i != 5) feed_reference_egress(verifier, i, ref.egress_headers[i]);
  }
  feed_reference_egress(verifier, 11, ref.egress_headers[0]);
  const EquivalenceReport report =
      verifier.finish(run_end(trace.size(), ref.final_registers));
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, 2u);
  EXPECT_NE(report.first_difference.find("out-of-range seq 11"),
            std::string::npos)
      << report.first_difference;
  EXPECT_EQ(verifier.verified(), 5u);
}

TEST(RollingVerifier, FinishFlagsASeqPastTheRunWithoutAHole) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 10, 15);
  const auto ref = test::run_reference(prog, trace);

  soak::RollingVerifier verifier(prog.pvsm,
                                 std::make_unique<UnsizedSource>(trace));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    feed_reference_egress(verifier, i, ref.egress_headers[i]);
  }
  feed_reference_egress(verifier, 11, ref.egress_headers[0]);
  const EquivalenceReport report =
      verifier.finish(run_end(trace.size(), ref.final_registers));
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, 1u);
  EXPECT_NE(report.first_difference.find("out-of-range seq 11"),
            std::string::npos)
      << report.first_difference;
}

TEST(RollingVerifier, WindowOverflowThrows) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 10, 11);
  soak::RollingVerifyOptions opts;
  opts.max_window = 2;
  auto verifier = make_verifier(prog, trace, opts);
  EgressRecord rec;
  rec.seq = 2; // seq 0 and 1 still unresolved: 3 pending > cap 2
  EXPECT_THROW(verifier->on_egress(std::move(rec)), Error);
}

TEST(RollingVerifier, SaveLoadRoundTrip) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 30, 12);
  const auto ref = test::run_reference(prog, trace);

  auto full = make_verifier(prog, trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    feed_reference_egress(*full, i, ref.egress_headers[i]);
  }
  const EquivalenceReport uninterrupted =
      full->finish(run_end(trace.size(), ref.final_registers));
  ASSERT_TRUE(uninterrupted.equivalent());

  auto first_half = make_verifier(prog, trace);
  for (std::size_t i = 0; i < 10; ++i) {
    feed_reference_egress(*first_half, i, ref.egress_headers[i]);
  }
  ByteWriter w;
  first_half->save(w);
  const std::string state = w.take();

  auto restored = make_verifier(prog, trace);
  ByteReader r(state);
  restored->load(r);
  r.expect_done();
  EXPECT_EQ(restored->verified(), 10u);
  for (std::size_t i = 10; i < trace.size(); ++i) {
    feed_reference_egress(*restored, i, ref.egress_headers[i]);
  }
  const EquivalenceReport resumed =
      restored->finish(run_end(trace.size(), ref.final_registers));
  EXPECT_TRUE(resumed.equivalent()) << resumed.first_difference;
  EXPECT_EQ(restored->verified(), trace.size());

  // load() refuses a verifier that already consumed records.
  auto used = make_verifier(prog, trace);
  feed_reference_egress(*used, 0, ref.egress_headers[0]);
  ByteReader r2(state);
  EXPECT_THROW(used->load(r2), Error);
}

// -- run_soak ---------------------------------------------------------------

soak::SoakOptions synthetic_soak(const Mp5Program& prog,
                                 std::uint64_t packets) {
  SyntheticSpec spec;
  spec.packets = packets;
  spec.pipelines = 4;
  spec.field_count = static_cast<std::uint32_t>(prog.pvsm.num_slots());
  spec.field_bound = 64;
  spec.seed = 3;
  soak::SoakOptions opts;
  opts.traffic = [spec] { return std::make_unique<SyntheticTraceSource>(spec); };
  opts.sim.paranoid_checks = true;
  return opts;
}

TEST(RunSoak, CleanRunVerifies) {
  const Mp5Program prog = soak_program();
  const soak::SoakOptions opts = synthetic_soak(prog, 5000);
  const soak::SoakReport report = soak::run_soak(prog, opts);
  EXPECT_TRUE(report.verify_ran);
  EXPECT_TRUE(report.verified) << report.equivalence.first_difference;
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.verified_packets, 5000u);
  EXPECT_EQ(report.checkpoints_written, 0u);
  EXPECT_FALSE(report.resumed);
}

TEST(RunSoak, CheckpointThenResumeMatchesUninterrupted) {
  const Mp5Program prog = soak_program();
  const std::string path = test::temp_path("soak_resume.ckpt");

  const soak::SoakReport baseline =
      soak::run_soak(prog, synthetic_soak(prog, 4000));
  ASSERT_TRUE(baseline.verified);

  soak::SoakOptions copts = synthetic_soak(prog, 4000);
  copts.checkpoint_interval = 200;
  copts.checkpoint_path = path;
  const soak::SoakReport checkpointed = soak::run_soak(prog, copts);
  EXPECT_GE(checkpointed.checkpoints_written, 2u);
  EXPECT_TRUE(checkpointed.verified);
  std::string why;
  ASSERT_TRUE(same_results(baseline.result, checkpointed.result, &why))
      << "checkpointing run diverged: " << why;

  // The file on disk holds the *last* checkpoint; resuming from it must
  // finish with the identical SimResult and a verified report.
  soak::SoakOptions ropts = copts;
  ropts.resume = path;
  const soak::SoakReport resumed = soak::run_soak(prog, ropts);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GT(resumed.resumed_from_cycle, 0u);
  EXPECT_TRUE(resumed.verified) << resumed.equivalence.first_difference;
  EXPECT_TRUE(same_results(baseline.result, resumed.result, &why))
      << "resumed run diverged: " << why;
}

TEST(RunSoak, RejectsBadOptionsAndCorruptCheckpoints) {
  const Mp5Program prog = soak_program();

  soak::SoakOptions no_path = synthetic_soak(prog, 100);
  no_path.checkpoint_interval = 50;
  EXPECT_THROW(soak::run_soak(prog, no_path), ConfigError);

  soak::SoakOptions resume_missing = synthetic_soak(prog, 100);
  resume_missing.resume = test::temp_path("no_such.ckpt");
  EXPECT_THROW(soak::run_soak(prog, resume_missing), Error);

  const std::string garbage = test::temp_path("garbage.ckpt");
  {
    std::string junk(200, 'x');
    write_checkpoint_file(garbage, junk);
  }
  soak::SoakOptions from_garbage = synthetic_soak(prog, 100);
  from_garbage.resume = garbage;
  EXPECT_THROW(soak::run_soak(prog, from_garbage), Error);
}

TEST(RunSoak, ResumeWithVerifyNeedsVerifierFrame) {
  const Mp5Program prog = soak_program();
  const std::string path = test::temp_path("soak_noverify.ckpt");

  // Checkpoint without verification: the file carries only the simulator
  // frame.
  soak::SoakOptions copts = synthetic_soak(prog, 2000);
  copts.verify = false;
  copts.checkpoint_interval = 150;
  copts.checkpoint_path = path;
  const soak::SoakReport report = soak::run_soak(prog, copts);
  ASSERT_GE(report.checkpoints_written, 1u);
  EXPECT_FALSE(report.verify_ran);

  soak::SoakOptions ropts = copts;
  ropts.resume = path;
  ropts.verify = true;
  EXPECT_THROW(soak::run_soak(prog, ropts), Error);

  // Resuming with verification off accepts the single-frame file.
  soak::SoakOptions ok = copts;
  ok.resume = path;
  const soak::SoakReport resumed = soak::run_soak(prog, ok);
  EXPECT_TRUE(resumed.resumed);
  std::string why;
  EXPECT_TRUE(same_results(report.result, resumed.result, &why)) << why;
}

TEST(RunSoak, LossyRunSettlesAndNamesItsDrops) {
  // One-deep FIFOs drop data packets whose phantoms were dropped. Every
  // drop reaches the verifier, so the window settles instead of piling up
  // behind the first lost seq, and the verdict names the drops.
  const Mp5Program prog = soak_program();
  soak::SoakOptions opts = synthetic_soak(prog, 6000);
  opts.sim.fifo_capacity = 1;
  const soak::SoakReport report = soak::run_soak(prog, opts);
  const SimResult& result = report.result;
  ASSERT_GT(result.dropped_data, 0u);
  EXPECT_TRUE(report.verify_ran);
  EXPECT_FALSE(report.verified);
  EXPECT_FALSE(report.equivalence.packets_equal);
  EXPECT_LT(report.verify_window_peak, 1000u);
  EXPECT_EQ(report.equivalence.first_difference.rfind(
                std::to_string(result.dropped_data + result.dropped_starved) +
                    " packets dropped outside the fault plan",
                0),
            0u)
      << report.equivalence.first_difference;
}

TEST(RollingVerifier, UndeclaredDropsViolateEvenWhenTruncated) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 6, 14);
  const auto ref = test::run_reference(prog, trace);

  auto verifier = make_verifier(prog, trace);
  feed_reference_egress(*verifier, 0, ref.egress_headers[0]);
  verifier->on_fault_drop(1, /*state_touched=*/true);
  ASSERT_TRUE(verifier->truncated());
  SimResult result = run_end(trace.size(), ref.final_registers);
  result.dropped_data = 2;
  result.dropped_starved = 1;
  const EquivalenceReport report = verifier->finish(result);
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.first_difference.rfind(
                "3 packets dropped outside the fault plan (2 data, 1 "
                "starved); rolling verification truncated at seq 1",
                0),
            0u)
      << report.first_difference;
}

TEST(RollingVerifier, AgreesWithSeqIndexedCheckerOnBaselines) {
  // The synthetic program's updates commute, so only recirculation's
  // ingress drops break it; the sequencer stamps the count into the packet,
  // which the replicated designs read stale. Each design streams into the
  // rolling verifier; the seq-indexed batch comparator reads the same
  // egress rows.
  for (const Mp5Program& prog :
       {soak_program(), test::compile_mp5(apps::sequencer_example_source())}) {
    const Trace trace = soak_trace(prog, 600, 13);
    const auto reference = test::run_reference(prog, trace);
    const auto check = [&]<class Sim, class Options>(Options opts) {
      SCOPED_TRACE(typeid(Sim).name());
      const test::StreamedRun run =
          test::run_streamed<Sim>(prog, trace, opts);
      std::vector<std::vector<Value>> rows;
      const auto to_rows = egress_by_seq_sink(rows);
      for (EgressRecord rec : run.streams.egress) to_rows(std::move(rec));
      const EquivalenceReport batch = check_equivalence(
          prog.pvsm, reference, run.result.final_registers, rows);
      const EquivalenceReport rolling = test::verify_streams(prog, trace, run);
      EXPECT_EQ(rolling.equivalent(), batch.equivalent());
      EXPECT_EQ(rolling.packets_equal, batch.packets_equal);
    };
    check.operator()<RecircSimulator>(RecircOptions{});
    check.operator()<ReplicatedSimulator>(scr_options(4));
    check.operator()<ReplicatedSimulator>(relaxed_options(4, 64));
  }
}

} // namespace
} // namespace mp5
