// Golden result digests for the executors that have no other pin: the
// sequential ReferenceSwitch, the recirculation baseline and the native
// backend, each over every builtin application at one fixed seed. The
// digests were recorded before the executors shared one register file and
// one per-packet execution core, so a change to that core that moves any
// of them is a behaviour change.
//
// The wide-trace test pins the arrival-header contract: trace columns past
// the program's declared fields never reach the program.
#include <gtest/gtest.h>

#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "apps/programs.hpp"
#include "baseline/recirc.hpp"
#include "common/rng.hpp"
#include "domino/parser.hpp"
#include "metrics/equivalence.hpp"
#include "native/backend.hpp"
#include "native/results.hpp"
#include "test_util.hpp"
#include "trace/trace_source.hpp"

namespace mp5::test {
namespace {

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

native::NativeResult run_native(const Builtin& b, const Trace& trace,
                                std::uint32_t workers) {
  native::NativeOptions opts;
  opts.workers = workers;
  opts.record_egress = true;
  opts.pin_threads = false;
  opts.seed = kSeed;
  native::NativeBackend backend(b.program, opts);
  VectorTraceSource source(trace);
  return backend.run(source);
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

/// Compare every builtin's digest against its golden, by name; print the
/// digest on a mismatch so a deliberate behaviour change can record it.
template <typename Run>
void expect_goldens(const std::vector<Golden>& goldens, Run run) {
  const auto all = builtins();
  ASSERT_EQ(all.size(), goldens.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].name, goldens[i].name);
    const std::uint64_t got = run(all[i]);
    std::ostringstream hex;
    hex << "0x" << std::hex << got;
    EXPECT_EQ(got, goldens[i].digest) << all[i].name << " digest " << hex.str();
  }
}

TEST(ExecutorGoldens, ReferenceSwitch) {
  expect_goldens(
      {
          {"flowlet", 0xd17a52d74a62a45c},
          {"conga", 0x2bdbfc0cd8cf5c14},
          {"wfq", 0xdd6f577beb404408},
          {"sequencer", 0x19d2d982c37ddd07},
          {"count_min", 0x49e6600947b4a84f},
          {"syn_flood", 0x30bf1332c6bfec7d},
          {"dns_amp", 0x4779bed5f92fa6c2},
          {"rcp", 0xf1e3b84095a060ab},
          {"netflow", 0xc85221a4eadddbd1},
          {"bloom_firewall", 0x35629ea0a2f3a814},
          {"dctcp_ecn", 0x6a74d93e224b4078},
      },
      [](const Builtin& b) {
        const auto ref = run_reference(b.program, make_trace(b));
        return final_state_digest(b.program.pvsm, ref.final_registers,
                                  ref.egress_headers);
      });
}

TEST(ExecutorGoldens, RecircSimulator) {
  expect_goldens(
      {
          {"flowlet", 0x1b3f212a9959f8a2},
          {"conga", 0xd55be8b84c4c4ffd},
          {"wfq", 0x418e7f4135aff2c7},
          {"sequencer", 0x419814bbf87ee0a5},
          {"count_min", 0x8405b452a8e51a02},
          {"syn_flood", 0x486b6723f27f3e9f},
          {"dns_amp", 0x83cb3f737e1306bd},
          {"rcp", 0x79e49a63701cc24d},
          {"netflow", 0x8502fe28ca1f1e54},
          {"bloom_firewall", 0x1b2aeb82d2f32033},
          {"dctcp_ecn", 0x812047f4d81575eb},
      },
      [](const Builtin& b) {
        RecircOptions opts;
        opts.record_egress = true;
        opts.seed = kSeed;
        return result_digest(
            RecircSimulator(b.program, opts).run(make_trace(b)));
      });
}

// Native egress and final registers are oracle-determined, so one golden
// holds for every worker count.
TEST(ExecutorGoldens, NativeBackendOneAndThreeWorkers) {
  const std::vector<Golden> goldens = {
      {"flowlet", 0x90d3e4863f86e0e6},
      {"conga", 0x11062935a70d203e},
      {"wfq", 0x36ba2951c332de0a},
      {"sequencer", 0x39d556a21d927275},
      {"count_min", 0x725692d1782c524d},
      {"syn_flood", 0x63b084b3715ac70f},
      {"dns_amp", 0xf4180a01667cf6e4},
      {"rcp", 0xf3514b91af777bf5},
      {"netflow", 0x3b552863b586a10b},
      {"bloom_firewall", 0x53ba1004e550726e},
      {"dctcp_ecn", 0x999986805fb0728e},
  };
  for (const std::uint32_t workers : {1u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_goldens(goldens, [workers](const Builtin& b) {
      return native::native_result_digest(
          b.program.pvsm, run_native(b, make_trace(b), workers));
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
    opts.record_egress = true;
    opts.paranoid_checks = true;
    opts.seed = kSeed;
    const SimResult sim_exact = Mp5Simulator(b.program, opts).run(exact);
    const SimResult sim_wide = Mp5Simulator(b.program, opts).run(wide);
    const auto report = check_equivalence(b.program.pvsm, reference, sim_wide);
    EXPECT_TRUE(report.equivalent()) << report.first_difference;
    EXPECT_EQ(sim_wide.final_registers, sim_exact.final_registers);
    ASSERT_EQ(sim_wide.egress.size(), sim_exact.egress.size());
    for (std::size_t i = 0; i < sim_wide.egress.size(); ++i) {
      EXPECT_EQ(final_state_digest(b.program.pvsm, {},
                                   {sim_wide.egress[i].headers}),
                final_state_digest(b.program.pvsm, {},
                                   {sim_exact.egress[i].headers}))
          << "egress record " << i;
    }

    for (const std::uint32_t workers : {1u, 2u}) {
      const auto run = run_native(b, wide, workers);
      EXPECT_EQ(native::native_result_digest(b.program.pvsm, run),
                native::native_result_digest(
                    b.program.pvsm, run_native(b, exact, workers)));
      const auto check = check_against_oracle(
          b.ast, b.program, wide, run.final_registers, run.egress_fields);
      EXPECT_TRUE(check.equivalent()) << check.first_difference;
    }
  }
}

} // namespace
} // namespace mp5::test
