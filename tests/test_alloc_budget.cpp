// Allocation budgets for the per-packet paths.
//
// These are counts, not timings, so host load cannot move them. This
// binary replaces the global operator new/delete with counting wrappers
// over std::malloc/std::free (which keeps it usable under ASan/UBSan: the
// sanitizer still sees every malloc/free pair), and each test counts the
// allocations made inside one window of work.
//
// Budgets:
//   * Mp5Simulator::run with an egress sink allocates nothing per packet,
//     only a small constant: the egress record lends the sink the header
//     vector and takes it back into the packet arena, and the phantom
//     directory, the kHash operands and the Figure 6 fallback allocate
//     nothing per packet.
//   * FabricSimulator::run allocates at most once per switch packet plus a
//     small constant. The one is make_fields' header row for the packet's
//     next switch; the per-switch in-flight map allocates nothing per
//     packet.
//   * A kHash instruction allocates nothing, at every arity.
//   * A warmed-up StageFifo push/insert/pop cycle allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "banzai/ir.hpp"
#include "fabric/fabric.hpp"
#include "mp5/stage_fifo.hpp"
#include "test_util.hpp"
#include "trace/workloads.hpp"

// GCC inlines the replacement delete into `new T` sites and then flags
// free() on memory from operator new; here both sides are malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

} // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mp5 {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr std::uint64_t kPackets = 20'000;
/// Per-run allocations that do not scale with packets: the result's
/// vectors, the arena and ring growth, the trace cursor.
constexpr std::uint64_t kConstantSlack = 500;

/// Allocations made by one Mp5Simulator::run of `app` on a dense
/// (line-rate) flow trace, with an egress sink as perfbench sets one.
std::uint64_t sim_run_allocations(const apps::AppSpec& app) {
  const Mp5Program program = test::compile_mp5(app.source);
  FlowWorkloadConfig config;
  config.pipelines = 4;
  config.packets = kPackets;
  config.seed = 1;
  const Trace trace = make_flow_trace(config, app.filler);
  SimOptions opts = mp5_options(4, 1);
  std::uint64_t egressed = 0;
  opts.egress_sink = [&egressed](EgressRecord&&) { ++egressed; };
  Mp5Simulator sim(program, opts);
  const std::uint64_t before = allocations();
  const SimResult result = sim.run(trace);
  const std::uint64_t used = allocations() - before;
  EXPECT_EQ(egressed, kPackets);
  EXPECT_EQ(result.egressed, kPackets);
  ::testing::Test::RecordProperty("allocations", std::to_string(used));
  return used;
}

TEST(AllocBudget, SimFlowletRunAllocatesNothingPerPacket) {
  const std::uint64_t used = sim_run_allocations(apps::flowlet_app());
  EXPECT_LE(used, kConstantSlack)
      << used << " allocations for " << kPackets << " packets";
}

TEST(AllocBudget, SimCongaRunAllocatesNothingPerPacket) {
  const std::uint64_t used = sim_run_allocations(apps::conga_app());
  EXPECT_LE(used, kConstantSlack)
      << used << " allocations for " << kPackets << " packets";
}

/// Per-run allocations of a fabric run that do not scale with packets:
/// besides the per-run vectors, each of the six switches warms up its
/// packet pool (a header row and an access plan per slot, up to the peak
/// number of packets in flight).
constexpr std::uint64_t kFabricSlack = 1000;

TEST(AllocBudget, FabricRunAllocatesAtMostOncePerSwitchPacket) {
  fabric::FabricOptions opts;
  opts.topology.leaves = 4;
  opts.topology.spines = 2;
  opts.topology.hosts_per_leaf = 16;
  opts.lb = fabric::LbMode::kConga;
  // Below saturation, so the packets in flight (and the pools) stay few.
  opts.workload.flows = 2000;
  opts.workload.flow_rate = 0.5;
  opts.workload.mean_lifetime = 1000.0;
  opts.workload.seed = 1;
  opts.seed = 1;
  opts.pipelines = 4;
  fabric::FabricSimulator sim(opts);
  const std::uint64_t before = allocations();
  const fabric::FabricResult result = sim.run();
  const std::uint64_t used = allocations() - before;
  std::uint64_t switch_packets = 0;
  for (const auto& s : result.switches) switch_packets += s.sim.offered;
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(switch_packets, 10'000u); // each packet crosses 1-3 switches
  ::testing::Test::RecordProperty("allocations", std::to_string(used));
  EXPECT_LE(used, switch_packets + kFabricSlack)
      << used << " allocations for " << switch_packets << " switch packets";
}

TEST(AllocBudget, HashInstructionAllocatesNothing) {
  std::vector<Value> headers = {11, -5, 3, 0, 99, 7, 0};
  ir::FlatRegFile regs({});
  for (std::size_t arity = 0; arity <= 6; ++arity) {
    ir::TacInstr instr;
    instr.op = ir::TacOp::kHash;
    instr.dst = 6;
    for (std::size_t i = 0; i < arity; ++i) {
      instr.hash_args.push_back(ir::Operand::make_slot(static_cast<ir::Slot>(i)));
    }
    const std::uint64_t before = allocations();
    for (int rep = 0; rep < 100; ++rep) {
      ir::exec_instr(instr, headers, regs, {});
    }
    EXPECT_EQ(allocations() - before, 0u) << "arity " << arity;
  }
}

TEST(AllocBudget, WarmStageFifoCycleAllocatesNothing) {
  StageFifo fifo(4, 0, false);
  SeqNo seq = 0;
  // One cycle: 32 phantoms spread over the lanes, every data packet
  // inserted, every entry popped.
  const auto cycle = [&] {
    const SeqNo first = seq;
    for (int i = 0; i < 32; ++i, ++seq) {
      ASSERT_TRUE(fifo.push_phantom(seq, 0, static_cast<RegIndex>(seq % 7),
                                    static_cast<PipelineId>(seq % 4)));
    }
    for (SeqNo s = first; s < seq; ++s) {
      ASSERT_TRUE(fifo.insert_data(s, static_cast<PacketRef>(s)));
    }
    for (SeqNo s = first; s < seq; ++s) {
      ASSERT_EQ(fifo.pop().kind, StageFifo::PopResult::Kind::kData);
    }
  };
  cycle(); // warm-up: lanes and directory reach their working size
  const std::uint64_t before = allocations();
  for (int rep = 0; rep < 50; ++rep) cycle();
  EXPECT_EQ(allocations() - before, 0u);
}

} // namespace
} // namespace mp5
