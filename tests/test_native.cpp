// Native multicore backend (src/native/): SPSC ring unit + concurrency
// tests, shard-ownership + ticket-ordering equivalence against the
// AstInterp oracle (committed corpus + generated-program sweep, every
// core count), and the scalability profiler's bottleneck attribution.
//
// The ring and multi-worker equivalence tests double as the TSan targets
// for this subsystem (CI runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "apps/programs.hpp"
#include "common/error.hpp"
#include "common/host.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "fuzz/program_gen.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/trace_gen.hpp"
#include "mp5/transform.hpp"
#include "native/backend.hpp"
#include "native/spsc_ring.hpp"
#include "test_util.hpp"
#include "trace/trace_source.hpp"

#ifndef MP5_CORPUS_DIR
#error "MP5_CORPUS_DIR must point at the committed reproducer corpus"
#endif

namespace mp5::test {
namespace {

// ---- SpscRing --------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(native::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(native::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(native::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(native::SpscRing<int>(1024).capacity(), 1024u);
  EXPECT_EQ(native::SpscRing<int>(1025).capacity(), 2048u);
}

TEST(SpscRing, FifoOrderAndFullEmptyBoundaries) {
  native::SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty_consumer());
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "5th push into a 4-slot ring";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_TRUE(ring.empty_consumer());
}

TEST(SpscRing, BatchPushAcceptsOnlyWhatFits) {
  native::SpscRing<int> ring(4);
  const int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.push_batch(items, 6), 4u);
  EXPECT_EQ(ring.push_batch(items, 6), 0u);
  int out[6] = {};
  EXPECT_EQ(ring.pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(ring.push_batch(items + 4, 2), 2u);
  // The consumer's cached producer index may lag (it only re-reads the
  // shared atomic when the cache looks empty), so draining can take more
  // than one call — what matters is nothing is lost or reordered.
  std::size_t drained = 0;
  while (drained < 4) {
    const std::size_t n = ring.pop_batch(out + drained, 6 - drained);
    if (n == 0) break;
    drained += n;
  }
  ASSERT_EQ(drained, 4u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[3], 5);
}

TEST(SpscRing, TwoThreadStressPreservesOrderAndLosesNothing) {
  // TSan target: a small ring forces constant wrap-around and full/empty
  // transitions between a real producer and consumer thread.
  constexpr std::uint64_t kItems = 200000;
  native::SpscRing<std::uint64_t> ring(64);
  std::thread producer([&ring] {
    std::uint64_t next = 0;
    std::uint64_t buf[17];
    while (next < kItems) {
      std::size_t n = 0;
      while (n < 17 && next + n < kItems) {
        buf[n] = next + n;
        ++n;
      }
      std::size_t sent = 0;
      while (sent < n) {
        sent += ring.push_batch(buf + sent, n - sent);
        // Yield, not pause: on a single-hardware-thread host a spinning
        // producer would burn whole scheduler quanta the consumer needs.
        if (sent < n) std::this_thread::yield();
      }
      next += n;
    }
  });
  std::uint64_t expect = 0;
  std::uint64_t buf[23];
  bool ordered = true;
  while (expect < kItems) {
    const std::size_t n = ring.pop_batch(buf, 23);
    for (std::size_t i = 0; i < n; ++i) ordered = ordered && buf[i] == expect++;
    if (n == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expect, kItems);
  EXPECT_TRUE(ring.empty_consumer());
}

TEST(RingBacklog, KeepsFifoOrderAndStaysBoundedUnderBackpressure) {
  // A producer with at most kPending refs outstanding feeds a 2-slot ring
  // that its consumer drains one ref per round: the ring accepts only
  // part of the backlog on nearly every flush, so the consumed prefix
  // never catches up with the end of the vector by itself.
  constexpr std::uint32_t kRefs = 100000;
  constexpr std::size_t kPending = 64;
  native::SpscRing<std::uint32_t> ring(2);
  native::RingBacklog<std::uint32_t> backlog;
  std::uint32_t next = 0;
  std::uint32_t expect = 0;
  std::size_t max_capacity = 0;
  bool ordered = true;
  while (expect < kRefs) {
    for (int i = 0; i < 3 && next < kRefs && backlog.size() < kPending; ++i) {
      backlog.push(next++);
    }
    backlog.flush(ring);
    max_capacity = std::max(max_capacity, backlog.capacity());
    std::uint32_t out = 0;
    if (ring.pop_batch(&out, 1) == 1) ordered = ordered && out == expect++;
  }
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(backlog.empty());
  EXPECT_LE(max_capacity, 4 * kPending)
      << "the consumed prefix was never compacted away";
}

// ---- backend helpers -------------------------------------------------------

struct CompiledProgram {
  domino::Ast ast;
  Mp5Program program;
};

CompiledProgram compile_source(const std::string& source) {
  CompiledProgram out;
  out.ast = domino::parse(source);
  const auto compiled =
      domino::compile(out.ast, banzai::MachineSpec{}, /*reserve_stages=*/1);
  out.program = transform(compiled.pvsm);
  return out;
}

Trace synthetic_trace(std::size_t fields, std::uint64_t packets,
                      std::uint64_t seed, Value bound = 64) {
  Rng rng(seed);
  Trace trace;
  for (std::uint64_t n = 0; n < packets; ++n) {
    TraceItem item;
    item.port = static_cast<std::uint32_t>(n % 8);
    for (std::size_t f = 0; f < fields; ++f) {
      item.fields.push_back(rng.next_in(0, bound - 1));
    }
    trace.push_back(std::move(item));
  }
  return trace;
}

/// Runs the backend; with `egress` set, gathers each packet's declared
/// fields there by seq.
native::NativeResult run_native(
    const CompiledProgram& cp, const Trace& trace, native::NativeOptions opts,
    std::vector<std::vector<Value>>* egress = nullptr) {
  if (egress != nullptr) opts.egress_sink = egress_by_seq_sink(*egress);
  opts.pin_threads = false; // meaningless on shared CI cores
  native::NativeBackend backend(cp.program, opts);
  VectorTraceSource source(trace);
  return backend.run(source);
}

void expect_oracle_equivalent(const CompiledProgram& cp, const Trace& trace,
                              const native::NativeOptions& opts,
                              const std::string& what) {
  std::vector<std::vector<Value>> egress;
  const auto result = run_native(cp, trace, opts, &egress);
  const auto check = check_against_oracle(
      cp.ast, cp.program, trace, result.final_registers, egress);
  EXPECT_TRUE(check.equivalent())
      << what << " (cores=" << opts.workers << "): "
      << check.first_difference;
}

// ---- a failing source -------------------------------------------------------

/// Streams a trace and throws Error when asked for item `fail_at`, as a
/// trace file with a malformed or out-of-order line does mid-run.
class ThrowingSource final : public TraceSource {
public:
  ThrowingSource(const Trace& trace, std::uint64_t fail_at)
      : inner_(trace), fail_at_(fail_at) {}

  const TraceItem* peek() override {
    if (inner_.consumed() == fail_at_) throw Error("source failed");
    return inner_.peek();
  }
  void advance() override { inner_.advance(); }
  std::uint64_t consumed() const override { return inner_.consumed(); }
  void skip_to(std::uint64_t n) override { inner_.skip_to(n); }
  std::optional<std::uint64_t> size() const override { return std::nullopt; }

private:
  VectorTraceSource inner_;
  std::uint64_t fail_at_;
};

TEST(NativeBackend, SourceErrorJoinsWorkersAndRethrows) {
  const auto cp = compile_source(apps::flowlet_app().source);
  const Trace trace =
      synthetic_trace(cp.ast.fields.size(), /*packets=*/6000, /*seed=*/3);
#if defined(__linux__)
  // On one CPU the dispatcher fills the in-flight pool (2048 refs) in one
  // time slice, past what an egress ring holds (1024 slots). When the
  // source then throws, nobody reaps egress: the workers must leave
  // without draining or the join never returns.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
#endif
  for (const std::uint32_t cores : {1u, 2u}) {
    for (const std::uint64_t fail_at : {0u, 100u, 5000u}) {
      native::NativeOptions opts;
      opts.workers = cores;
      opts.pool_packets = 2048;
      opts.pin_threads = false;
      native::NativeBackend backend(cp.program, opts);
      ThrowingSource source(trace, fail_at);
      EXPECT_THROW(backend.run(source), Error)
          << "cores=" << cores << " fail_at=" << fail_at;
    }
  }
#if defined(__linux__)
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
#endif
}

// ---- option validation -----------------------------------------------------

TEST(NativeBackend, RejectsUnusableOptions) {
  const auto cp = compile_source(apps::packet_counter_source());
  auto with = [](auto mutate) {
    native::NativeOptions opts;
    mutate(opts);
    return opts;
  };
  EXPECT_THROW(native::NativeBackend(cp.program, with([](auto& o) {
                                       o.workers = 0;
                                     })),
               ConfigError);
  EXPECT_THROW(native::NativeBackend(cp.program, with([](auto& o) {
                                       o.workers = 65;
                                     })),
               ConfigError);
  EXPECT_THROW(native::NativeBackend(cp.program, with([](auto& o) {
                                       o.batch = 0;
                                     })),
               ConfigError);
  EXPECT_THROW(native::NativeBackend(cp.program, with([](auto& o) {
                                       o.ring_capacity = o.batch;
                                     })),
               ConfigError);
  EXPECT_THROW(native::NativeBackend(cp.program, with([](auto& o) {
                                       o.pool_packets = o.batch;
                                     })),
               ConfigError);
}

// ---- equivalence: apps x cores x policies ----------------------------------

TEST(NativeBackend, BuiltinAppsMatchOracleAcrossCoresAndPolicies) {
  const std::vector<std::string> sources = {
      apps::packet_counter_source(), apps::figure3_source()};
  std::vector<std::string> names = {"counter", "figure3"};
  for (const auto& app : apps::real_apps()) {
    if (app.name == "flowlet" || app.name == "count_min") {
      names.push_back(app.name);
    }
  }
  std::vector<CompiledProgram> programs;
  for (const auto& src : sources) programs.push_back(compile_source(src));
  for (const auto& app : apps::real_apps()) {
    if (app.name == "flowlet" || app.name == "count_min") {
      programs.push_back(compile_source(app.source));
    }
  }
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Trace trace =
        synthetic_trace(programs[p].ast.fields.size(), 3000, 7 + p);
    for (const std::uint32_t cores : {1u, 2u, 4u}) {
      for (const ShardingPolicy policy :
           {ShardingPolicy::kDynamic, ShardingPolicy::kStaticRandom,
            ShardingPolicy::kSinglePipeline, ShardingPolicy::kIdealLpt}) {
        native::NativeOptions opts;
        opts.workers = cores;
        opts.policy = policy;
        opts.rebalance_packets = 512; // exercise migration mid-run
        expect_oracle_equivalent(programs[p], trace, opts, names[p]);
      }
    }
  }
}

TEST(NativeBackend, OneWorkerWithTheSmallestRingsMatchesOracle) {
  // Rings of exactly two batches keep the dispatcher's and the worker's
  // backlogs under constant backpressure.
  const auto cp = compile_source(apps::flowlet_app().source);
  const Trace trace = synthetic_trace(cp.ast.fields.size(), 20000, 13, 4096);
  native::NativeOptions opts;
  opts.workers = 1;
  opts.ring_capacity = 2 * opts.batch;
  expect_oracle_equivalent(cp, trace, opts, "flowlet, 2-batch rings");
}

// ---- equivalence: committed corpus -----------------------------------------

TEST(NativeBackend, CorpusReproducersMatchOracleAtEveryCoreCount) {
  std::vector<std::string> entries;
  for (const auto& item :
       std::filesystem::directory_iterator(MP5_CORPUS_DIR)) {
    if (item.path().extension() == ".json") {
      entries.push_back(item.path().string());
    }
  }
  std::sort(entries.begin(), entries.end());
  ASSERT_GE(entries.size(), 1u);
  std::size_t replayed = 0;
  for (const std::string& path : entries) {
    SCOPED_TRACE(path);
    const fuzz::Reproducer repro = fuzz::load_reproducer(path);
    // Self-test entries exist to *diverge* (deliberately broken oracle);
    // only regression witnesses carry the equivalence obligation.
    if (repro.kind != fuzz::FailureKind::kNone || repro.inject_floor_mod_bug) {
      continue;
    }
    const auto cp = compile_source(repro.program_source);
    for (const std::uint32_t cores : {1u, 2u, 4u}) {
      native::NativeOptions opts;
      opts.workers = cores;
      opts.rebalance_packets = 256;
      expect_oracle_equivalent(cp, repro.trace, opts, path);
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 1u) << "no pass-expecting corpus entries replayed";
}

// ---- equivalence: generated-program sweep ----------------------------------

TEST(NativeBackend, GeneratedProgramSweepMatchesOracleAtEveryCoreCount) {
  // The acceptance bar is >= 20 *compiling* programs, so keep drawing
  // seeds until 20 have been cross-checked (many seeds are legitimately
  // rejected by the compiler — cyclic state dependencies etc.).
  constexpr std::uint64_t kTarget = 20;
  constexpr std::uint64_t kMaxSeeds = 200;
  fuzz::ProgramGen::Options gopts;
  std::uint64_t checked = 0;
  for (std::uint64_t seed = 1; seed <= kMaxSeeds && checked < kTarget;
       ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz::ProgramGen gen(seed, gopts);
    const std::string source = gen.generate();
    CompiledProgram cp;
    try {
      cp = compile_source(source);
    } catch (const Error&) {
      continue;
    }
    const Trace trace = fuzz::generate_trace(seed, cp.ast.fields.size());
    for (const std::uint32_t cores : {1u, 2u, 4u}) {
      native::NativeOptions opts;
      opts.workers = cores;
      opts.rebalance_packets = 128;
      expect_oracle_equivalent(cp, trace, opts, "generated program");
    }
    ++checked;
  }
  EXPECT_EQ(checked, kTarget);
}

// ---- profiler --------------------------------------------------------------

TEST(NativeProfiler, GlobalCounterIsNamedAsTheSerializingRegister) {
  const auto cp = compile_source(apps::packet_counter_source());
  const Trace trace = synthetic_trace(cp.ast.fields.size(), 4000, 3);
  native::NativeOptions opts;
  opts.workers = 4;
  const auto result = run_native(cp, trace, opts);
  // A scalar register cannot shard: every packet's access funnels through
  // the one owner core no matter how many workers exist.
  EXPECT_EQ(result.profile.serializing_register, "count");
  EXPECT_DOUBLE_EQ(result.profile.serial_fraction, 1.0);
  const auto& regs = result.profile.registers;
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].claimed, trace.size());
  EXPECT_EQ(regs[0].performed, trace.size());
  EXPECT_EQ(regs[0].busiest_owner_accesses, trace.size());
  EXPECT_DOUBLE_EQ(regs[0].owner_share, 1.0);
}

TEST(NativeProfiler, ShardableStateSpreadsOwnershipAcrossWorkers) {
  // flowlet's per-flow arrays shard by index: with many flows no single
  // owner should hold everything once rebalancing has run.
  const apps::AppSpec* flowlet = nullptr;
  auto all = apps::real_apps();
  for (const auto& app : all) {
    if (app.name == "flowlet") flowlet = &app;
  }
  ASSERT_NE(flowlet, nullptr);
  const auto cp = compile_source(flowlet->source);
  const Trace trace = synthetic_trace(cp.ast.fields.size(), 8000, 11, 4096);
  native::NativeOptions opts;
  opts.workers = 4;
  opts.rebalance_packets = 512;
  std::vector<std::vector<Value>> egress;
  const auto result = run_native(cp, trace, opts, &egress);
  EXPECT_GT(result.rebalances, 0u);
  EXPECT_LT(result.profile.serial_fraction, 0.9)
      << "sharded app serialized through one core";
  std::uint64_t total_claimed = 0;
  for (const auto& r : result.profile.registers) total_claimed += r.claimed;
  EXPECT_GT(total_claimed, 0u);
  const auto check = check_against_oracle(
      cp.ast, cp.program, trace, result.final_registers, egress);
  EXPECT_TRUE(check.equivalent()) << check.first_difference;
}

#if defined(__linux__)
TEST(NativeBackend, CountsAffinityMaskAndStaysExactOnOneCpu) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  // Workers inherit the one-CPU mask: two of them plus the dispatcher
  // time-share it, and the result must still match the oracle.
  EXPECT_EQ(host::usable_cpus(), 1u);
  const auto cp = compile_source(apps::flowlet_app().source);
  const Trace trace = synthetic_trace(cp.ast.fields.size(), 2000, 11);
  native::NativeOptions opts;
  opts.workers = 2;
  expect_oracle_equivalent(cp, trace, opts, "flowlet on one CPU");
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  auto expected = static_cast<std::uint32_t>(CPU_COUNT(&saved));
  std::ifstream cgroup("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (std::getline(cgroup, line)) {
    if (const auto quota = host::cpu_max_limit(line)) {
      expected = std::min(expected, *quota);
    }
  }
  EXPECT_EQ(host::usable_cpus(), expected);
}
#endif

TEST(NativeBackend, CgroupCpuMaxRoundsTheQuotaUp) {
  EXPECT_EQ(host::cpu_max_limit("max 100000"), std::nullopt);
  EXPECT_EQ(host::cpu_max_limit("max 100000\n"), std::nullopt);
  EXPECT_EQ(host::cpu_max_limit("150000 100000"), 2u);
  EXPECT_EQ(host::cpu_max_limit("50000 100000\n"), 1u);
  EXPECT_EQ(host::cpu_max_limit("400000 100000"), 4u);
  for (const char* garbage : {"", "max", "150000", "abc 100000",
                              "150000 0", "0 100000", "-5 100000",
                              "150000 100000 7", "1.5 1"}) {
    EXPECT_EQ(host::cpu_max_limit(garbage), std::nullopt)
        << "'" << garbage << "'";
  }
}

TEST(NativeBackend, WorkerAccountingIsConsistent) {
  const auto cp = compile_source(apps::figure3_source());
  const Trace trace = synthetic_trace(cp.ast.fields.size(), 5000, 5);
  native::NativeOptions opts;
  opts.workers = 3;
  const auto result = run_native(cp, trace, opts);
  EXPECT_EQ(result.packets, trace.size());
  std::uint64_t stages = 0;
  for (const auto& w : result.profile.workers) stages += w.stages;
  // Every packet traverses every program stage exactly once, wherever it
  // ran.
  EXPECT_EQ(stages, trace.size() * cp.program.pvsm.stages.size());
  const auto& d = result.profile.dispatcher;
  EXPECT_EQ(d.admitted, trace.size());
  EXPECT_EQ(d.reaped, trace.size());
  EXPECT_EQ(d.busy_ns + d.idle_ns, 0u) << "wall clock read with profile off";
  for (const auto& r : result.profile.registers) {
    EXPECT_LE(r.performed, r.claimed);
    EXPECT_LE(r.busiest_owner_accesses, r.claimed);
    EXPECT_GE(r.owner_share, 0.0);
    EXPECT_LE(r.owner_share, 1.0);
  }
}

TEST(NativeProfiler, DispatcherIsTimedWithinTheRun) {
  const auto cp = compile_source(apps::flowlet_app().source);
  const Trace trace = synthetic_trace(cp.ast.fields.size(), 5000, 17, 4096);
  native::NativeOptions opts;
  opts.workers = 2;
  opts.profile = true;
  const auto result = run_native(cp, trace, opts);
  const auto& d = result.profile.dispatcher;
  EXPECT_EQ(d.admitted, trace.size());
  EXPECT_EQ(d.reaped, trace.size());
  EXPECT_GT(d.busy_ns, 0u);
  // The dispatcher's iterations tile the timed window, never more.
  EXPECT_LE(static_cast<double>(d.busy_ns + d.idle_ns),
            result.seconds * 1e9);
}

} // namespace
} // namespace mp5::test
