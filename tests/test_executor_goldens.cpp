// Golden result digests for the executors that have no other pin: the
// sequential ReferenceSwitch, the recirculation baseline and the native
// backend, each over every builtin application at one fixed seed (rows of
// tests/goldens.inc). The digests were recorded before the executors
// shared one register file and one per-packet execution core, so a change
// to that core that moves any of them is a behaviour change.
//
// The wide-trace test pins the arrival-header contract: trace columns past
// the program's declared fields never reach the program.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/programs.hpp"
#include "baseline/recirc.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "domino/parser.hpp"
#include "goldens.hpp"
#include "metrics/equivalence.hpp"
#include "native/backend.hpp"
#include "native/results.hpp"
#include "test_util.hpp"
#include "trace/trace_source.hpp"

namespace mp5::test {
namespace {

/// Digest of the state equivalence is about, folded into `d` after any
/// words it already holds: the register arrays, then the egress row count
/// and each row's declared slots (missing trailing slots read 0). With
/// `egress` in seq order, equivalent runs of one input digest alike,
/// whatever executed them.
std::uint64_t final_state_digest(
    const ir::Pvsm& program,
    const std::vector<std::vector<Value>>& final_registers,
    const std::vector<std::vector<Value>>& egress, Fnv1aDigest d = {}) {
  add_registers(d, final_registers);
  d.add(egress.size());
  for (const auto& headers : egress) {
    for (std::size_t s = 0; s < program.declared_slot.size(); ++s) {
      d.add(static_cast<std::uint64_t>(s < headers.size() ? headers[s] : 0));
    }
  }
  return d.value();
}

constexpr std::size_t kPackets = 600;
constexpr Value kFieldBound = 64; // small: indices collide across flows
constexpr std::uint64_t kSeed = 7;

struct Builtin {
  std::string name;
  domino::Ast ast;
  Mp5Program program;
};

std::vector<Builtin> builtins() {
  std::vector<Builtin> out;
  auto apps = apps::real_apps();
  const auto more = apps::extended_apps();
  apps.insert(apps.end(), more.begin(), more.end());
  for (const auto& app : apps) {
    Builtin b;
    b.name = app.name;
    b.ast = domino::parse(app.source);
    b.program = compile_mp5(app.source);
    out.push_back(std::move(b));
  }
  return out;
}

/// `kPackets` packets at line rate for 4 pipelines, `extra` random columns
/// after the declared fields.
Trace make_trace(const Builtin& b, std::size_t extra = 0) {
  Rng rng(kSeed);
  auto fields = random_fields(kPackets, b.ast.fields.size(), kFieldBound, rng);
  Rng noise(kSeed + 1);
  for (auto& f : fields) {
    for (std::size_t i = 0; i < extra; ++i) {
      f.push_back(noise.next_in(-1000000, 1000000));
    }
  }
  return trace_from_fields(fields, 4);
}

/// Runs the backend; with `egress` set, gathers each packet's declared
/// fields there by seq.
native::NativeResult run_native(
    const Builtin& b, const Trace& trace, std::uint32_t workers,
    std::vector<std::vector<Value>>* egress = nullptr) {
  native::NativeOptions opts;
  opts.workers = workers;
  if (egress != nullptr) opts.egress_sink = egress_by_seq_sink(*egress);
  opts.pin_threads = false;
  opts.seed = kSeed;
  native::NativeBackend backend(b.program, opts);
  VectorTraceSource source(trace);
  return backend.run(source);
}

/// Check every builtin's digest against its row `<executor>_<builtin>`.
template <typename Run>
void expect_goldens(const std::string& executor, Run run) {
  for (const Builtin& b : builtins()) {
    expect_golden(executor + "_" + b.name, run(b));
  }
}

TEST(ExecutorGoldens, ReferenceSwitch) {
  expect_goldens("reference", [](const Builtin& b) {
    const auto ref = run_reference(b.program, make_trace(b));
    return final_state_digest(b.program.pvsm, ref.final_registers,
                              ref.egress_headers);
  });
}

TEST(ExecutorGoldens, RecircSimulator) {
  expect_goldens("recirc", [](const Builtin& b) {
    RecircOptions opts;
    opts.seed = kSeed;
    return streamed_digest(
        run_streamed<RecircSimulator>(b.program, make_trace(b), opts));
  });
}

// Native egress and final registers are oracle-determined, so one golden
// holds for every worker count: the packet count, the final registers and
// every packet's declared fields, by seq.
TEST(ExecutorGoldens, NativeBackendOneAndThreeWorkers) {
  for (const std::uint32_t workers : {1u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_goldens("native", [workers](const Builtin& b) {
      std::vector<std::vector<Value>> egress;
      const auto run = run_native(b, make_trace(b), workers, &egress);
      Fnv1aDigest d;
      d.add(run.packets);
      return final_state_digest(b.program.pvsm, run.final_registers, egress,
                                d);
    });
  }
}

// Eight extra random trace columns change nothing: not the reference, not
// MP5, not the native backend, and all three still match the oracle.
TEST(ArrivalHeaders, ExtraTraceColumnsNeverReachTheProgram) {
  for (const Builtin& b : builtins()) {
    SCOPED_TRACE(b.name);
    const Trace exact = make_trace(b);
    const Trace wide = make_trace(b, 8);
    const auto reference = run_reference(b.program, exact);
    const auto wide_reference = run_reference(b.program, wide);
    EXPECT_EQ(final_state_digest(b.program.pvsm, wide_reference.final_registers,
                                 wide_reference.egress_headers),
              final_state_digest(b.program.pvsm, reference.final_registers,
                                 reference.egress_headers));
    SimOptions opts;
    opts.paranoid_checks = true;
    opts.seed = kSeed;
    const StreamedRun sim_exact = run_streamed(b.program, exact, opts);
    const StreamedRun sim_wide = run_streamed(b.program, wide, opts);
    // The wide run, verified against the reference over the exact trace.
    const auto report = verify_streams(b.program, exact, sim_wide);
    EXPECT_TRUE(report.equivalent()) << report.first_difference;
    EXPECT_EQ(sim_wide.result.final_registers,
              sim_exact.result.final_registers);
    const auto& wide_egress = sim_wide.streams.egress;
    const auto& exact_egress = sim_exact.streams.egress;
    ASSERT_EQ(wide_egress.size(), exact_egress.size());
    for (std::size_t i = 0; i < wide_egress.size(); ++i) {
      EXPECT_EQ(wide_egress[i].seq, exact_egress[i].seq);
      EXPECT_EQ(final_state_digest(b.program.pvsm, {},
                                   {wide_egress[i].headers}),
                final_state_digest(b.program.pvsm, {},
                                   {exact_egress[i].headers}))
          << "egress record " << i;
    }

    for (const std::uint32_t workers : {1u, 2u}) {
      std::vector<std::vector<Value>> wide_rows;
      std::vector<std::vector<Value>> exact_rows;
      const auto run = run_native(b, wide, workers, &wide_rows);
      EXPECT_EQ(native::native_result_digest(run),
                native::native_result_digest(
                    run_native(b, exact, workers, &exact_rows)));
      EXPECT_EQ(wide_rows, exact_rows);
      const auto check = check_against_oracle(
          b.ast, b.program, wide, run.final_registers, wide_rows);
      EXPECT_TRUE(check.equivalent()) << check.first_difference;
    }
  }
}

} // namespace
} // namespace mp5::test
