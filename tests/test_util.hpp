// Shared helpers for the MP5 test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "banzai/single_pipeline.hpp"
#include "common/rng.hpp"
#include "domino/ast_interp.hpp"
#include "domino/compiler.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "soak/rolling_verify.hpp"
#include "trace/trace.hpp"
#include "trace/trace_source.hpp"

namespace mp5::test {

/// A path under testing::TempDir() that belongs to the running test alone:
/// ctest runs each discovered test as its own process, so two tests that
/// wrote one fixed name would race under `ctest -j`. The name carries the
/// suite, the test and the pid; `file` tells one test's files apart. The
/// file is removed when the test process exits.
inline std::string temp_path(const std::string& file) {
  struct Made {
    std::vector<std::string> paths;
    ~Made() {
      for (const std::string& p : paths) std::remove(p.c_str());
    }
  };
  static Made made;
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(::getpid()) + "." +
                     file;
  std::replace(name.begin(), name.end(), '/', '_'); // parameterized names
  made.paths.push_back(testing::TempDir() + name);
  return made.paths.back();
}

/// Compile source all the way to an Mp5Program (reserving the AR stage).
inline Mp5Program compile_mp5(const std::string& source,
                              const TransformOptions& topts = {},
                              const banzai::MachineSpec& machine = {}) {
  auto compiled = domino::compile(source, machine, /*reserve_stages=*/1);
  return transform(compiled.pvsm, topts);
}

/// Build a trace directly from per-packet declared-field values, arriving
/// back to back at line rate for `pipelines` pipelines (64 B packets).
inline Trace trace_from_fields(const std::vector<std::vector<Value>>& packets,
                               std::uint32_t pipelines, double load = 1.0) {
  Trace trace;
  LineRateClock clock(pipelines, load);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    TraceItem item;
    item.arrival_time = clock.next(64);
    item.port = static_cast<std::uint32_t>(i % 64);
    item.size_bytes = 64;
    item.flow = i;
    item.fields = packets[i];
    trace.push_back(std::move(item));
  }
  return trace;
}

/// Random declared-field values in [0, bound).
inline std::vector<std::vector<Value>> random_fields(std::size_t packets,
                                                     std::size_t num_fields,
                                                     Value bound, Rng& rng) {
  std::vector<std::vector<Value>> out(packets);
  for (auto& fields : out) {
    fields.resize(num_fields);
    for (auto& v : fields) v = rng.next_in(0, bound - 1);
  }
  return out;
}

/// Run the single-pipeline reference over a trace.
inline banzai::ReferenceResult run_reference(const Mp5Program& prog,
                                             const Trace& trace) {
  banzai::ReferenceSwitch ref(prog.pvsm);
  return ref.run(to_header_batch(trace, prog.pvsm));
}

/// Check a run, given as final registers plus egress headers by seq,
/// against the AstInterp oracle's replay of the same trace.
inline EquivalenceReport check_against_oracle(
    const domino::Ast& ast, const Mp5Program& prog, const Trace& trace,
    const std::vector<std::vector<Value>>& final_registers,
    const std::vector<std::vector<Value>>& egress_by_seq) {
  domino::AstInterp oracle(ast);
  return check_equivalence(prog.pvsm, domino::replay(oracle, prog.pvsm, trace),
                           final_registers, egress_by_seq);
}

/// Run `Sim` on `opts` over `trace` with its egress and drops streamed
/// into a RollingVerifier, and return the verdict against the reference.
template <class Sim = Mp5Simulator, class Options>
EquivalenceReport run_verified(const Mp5Program& prog, const Trace& trace,
                               Options opts, SimResult* result = nullptr) {
  soak::RollingVerifier verifier(prog.pvsm,
                                 std::make_unique<VectorTraceSource>(trace));
  verifier.attach(opts);
  const SimResult run = Sim(prog, opts).run(trace);
  if (result != nullptr) *result = run;
  return verifier.finish(run);
}

/// Run MP5 and check functional equivalence against the reference.
inline EquivalenceReport run_and_check(const Mp5Program& prog,
                                       const Trace& trace, SimOptions opts) {
  // Every equivalence run doubles as a watchdog run: the per-cycle
  // invariant checks must stay clean across the whole suite.
  opts.paranoid_checks = true;
  return run_verified(prog, trace, std::move(opts));
}

using soak::run_streamed;
using soak::StreamedRun;
using soak::verify_streams;

/// result_digest, then every egress record and every drop in emission
/// order: pins a run's per-packet output along with its result.
inline std::uint64_t streamed_digest(const StreamedRun& run) {
  Fnv1aDigest d;
  d.add(result_digest(run.result));
  d.add(run.streams.egress.size());
  for (const EgressRecord& e : run.streams.egress) {
    d.add(e.seq);
    d.add(e.egress_cycle);
    d.add(e.flow);
    d.add(e.headers.size());
    for (const Value v : e.headers) d.add(static_cast<std::uint64_t>(v));
  }
  d.add(run.streams.drops.size());
  for (const SimResult::FaultDrop& f : run.streams.drops) {
    d.add(f.seq);
    d.add(std::uint64_t{f.state_touched});
  }
  return d.value();
}

/// Both runs' results are field-by-field equal and their streams equal.
inline void expect_same_run(const StreamedRun& a, const StreamedRun& b) {
  std::string why;
  EXPECT_TRUE(same_results(a.result, b.result, &why)) << why;
  EXPECT_TRUE(a.streams.egress == b.streams.egress) << "egress streams differ";
  EXPECT_TRUE(a.streams.drops == b.streams.drops) << "drop streams differ";
}

/// A checkpoint a run emitted, with how much of its egress and drop
/// streams the run had emitted when the checkpoint fired.
struct CheckpointFrame {
  Cycle cycle = 0;
  std::string blob;
  PacketStreams::Mark emitted;
};

/// Run `Sim` on `opts` checkpointing every `interval` cycles; every frame
/// lands in `frames`.
template <class Sim = Mp5Simulator, class Options>
StreamedRun run_checkpointing(const Mp5Program& prog, const Trace& trace,
                              Options opts, std::uint64_t interval,
                              std::vector<CheckpointFrame>& frames) {
  StreamedRun run;
  run.streams.attach(opts);
  opts.checkpoint_interval = interval;
  opts.checkpoint_sink = [&](Cycle cycle, std::string&& blob) {
    frames.push_back({cycle, std::move(blob), run.streams.mark()});
  };
  run.result = Sim(prog, opts).run(trace);
  return run;
}

/// Resume `Sim` on `opts` from `frame`: the result must be the
/// uninterrupted run's, and the streams exactly what it emitted after the
/// frame fired.
template <class Sim = Mp5Simulator, class Options>
void expect_resumes(const Mp5Program& prog, const Trace& trace, Options opts,
                    const CheckpointFrame& frame, const StreamedRun& whole) {
  SCOPED_TRACE("restore at cycle " + std::to_string(frame.cycle));
  StreamedRun resumed;
  resumed.streams.attach(opts);
  Sim sim(prog, opts);
  VectorTraceSource source(trace);
  resumed.result = sim.resume(source, frame.blob);
  StreamedRun expected;
  expected.result = whole.result;
  expected.streams = whole.streams.since(frame.emitted);
  expect_same_run(expected, resumed);
}

} // namespace mp5::test
