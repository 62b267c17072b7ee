// Soak subsystem (ISSUE 6): rolling verification semantics, its
// checkpointability, and the end-to-end run_soak driver including
// resume-from-checkpoint bit-identity and the flat-RSS ceiling.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
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
  opts.egress_sink = [&](EgressRecord&& rec) {
    verifier->on_egress(std::move(rec));
  };
  opts.fault_drop_sink = [&](SeqNo seq, bool touched) {
    verifier->on_fault_drop(seq, touched);
  };
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);
  const EquivalenceReport rolling =
      verifier->finish(result.offered, result.final_registers);
  EXPECT_TRUE(rolling.equivalent()) << rolling.first_difference;
  EXPECT_EQ(verifier->verified(), trace.size());
  EXPECT_FALSE(verifier->truncated());

  const EquivalenceReport batch =
      test::run_and_check(prog, trace, SimOptions{});
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
      verifier->finish(trace.size(), ref.final_registers);
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
      verifier->finish(trace.size(), ref.final_registers);
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
      verifier->finish(trace.size(), ref.final_registers);
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
      verifier->finish(trace.size(), ref.final_registers);
  EXPECT_EQ(verifier->verified(), 1u);
  EXPECT_NE(report.first_difference.find("truncated at seq 1"),
            std::string::npos)
      << report.first_difference;
}

TEST(RollingVerifier, FinishFlagsNeverEgressed) {
  const Mp5Program prog = soak_program();
  const Trace trace = soak_trace(prog, 5, 10);
  auto verifier = make_verifier(prog, trace);
  const EquivalenceReport report = verifier->finish(trace.size(), {});
  EXPECT_FALSE(report.packets_equal);
  EXPECT_EQ(report.packet_mismatches, trace.size());
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
      full->finish(trace.size(), ref.final_registers);
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
      restored->finish(trace.size(), ref.final_registers);
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
  soak::SoakOptions opts;
  opts.synthetic.packets = packets;
  opts.synthetic.pipelines = 4;
  opts.synthetic.field_count =
      static_cast<std::uint32_t>(prog.pvsm.num_slots());
  opts.synthetic.field_bound = 64;
  opts.synthetic.seed = 3;
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
  ropts.resume = true;
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

  soak::SoakOptions resume_no_path = synthetic_soak(prog, 100);
  resume_no_path.resume = true;
  EXPECT_THROW(soak::run_soak(prog, resume_no_path), ConfigError);

  const std::string garbage = test::temp_path("garbage.ckpt");
  {
    std::string junk(200, 'x');
    write_checkpoint_file(garbage, junk);
  }
  soak::SoakOptions from_garbage = synthetic_soak(prog, 100);
  from_garbage.checkpoint_path = garbage;
  from_garbage.resume = true;
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
  ropts.resume = true;
  ropts.verify = true;
  EXPECT_THROW(soak::run_soak(prog, ropts), Error);

  // Resuming with verification off accepts the single-frame file.
  soak::SoakOptions ok = copts;
  ok.resume = true;
  const soak::SoakReport resumed = soak::run_soak(prog, ok);
  EXPECT_TRUE(resumed.resumed);
  std::string why;
  EXPECT_TRUE(same_results(report.result, resumed.result, &why)) << why;
}

TEST(RunSoak, EnforcesRssCeiling) {
  const Mp5Program prog = soak_program();
  soak::SoakOptions opts = synthetic_soak(prog, 2000);
  opts.checkpoint_interval = 100;
  opts.checkpoint_path = test::temp_path("soak_rss.ckpt");
  opts.rss_limit_kib = 1; // any real process exceeds 1 KiB
  try {
    soak::run_soak(prog, opts);
    FAIL() << "expected the RSS ceiling to trip";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("RSS ceiling"), std::string::npos)
        << e.what();
  }
}

} // namespace
} // namespace mp5
