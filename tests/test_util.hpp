// Shared helpers for the MP5 test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "banzai/single_pipeline.hpp"
#include "common/rng.hpp"
#include "domino/ast_interp.hpp"
#include "domino/compiler.hpp"
#include "metrics/equivalence.hpp"
#include "mp5/simulator.hpp"
#include "mp5/transform.hpp"
#include "trace/trace.hpp"

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

/// Run MP5 and check functional equivalence against the reference.
inline EquivalenceReport run_and_check(const Mp5Program& prog,
                                       const Trace& trace, SimOptions opts) {
  opts.record_egress = true;
  // Every equivalence run doubles as a watchdog run: the per-cycle
  // invariant checks must stay clean across the whole suite.
  opts.paranoid_checks = true;
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);
  const auto reference = run_reference(prog, trace);
  return check_equivalence(prog.pvsm, reference, result);
}

} // namespace mp5::test
