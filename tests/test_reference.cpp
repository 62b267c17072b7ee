#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "banzai/single_pipeline.hpp"
#include "banzai/ir.hpp"
#include "domino/compiler.hpp"

namespace mp5 {
namespace {

ir::Pvsm compile_src(const std::string& src) {
  return domino::compile(src).pvsm;
}

TEST(Reference, CounterCountsPackets) {
  const auto pvsm = compile_src(apps::packet_counter_source());
  banzai::ReferenceSwitch sw(pvsm);
  for (int i = 0; i < 5; ++i) sw.process(std::vector<Value>(pvsm.num_slots()));
  EXPECT_EQ(sw.registers()[0][0], 5);
}

TEST(Reference, SequencerStampsMonotonically) {
  const auto pvsm = compile_src(apps::sequencer_example_source());
  banzai::ReferenceSwitch sw(pvsm);
  const auto stamp = static_cast<std::size_t>(pvsm.slot_of("stamp"));
  for (int i = 1; i <= 3; ++i) {
    const auto out = sw.process(std::vector<Value>(pvsm.num_slots()));
    EXPECT_EQ(out[stamp], i);
  }
}

TEST(Reference, Figure3SinglePipelineNarrative) {
  // Packets A..D (mux=1) multiply reg3[2] by val=reg1[1]=4; packet E
  // (mux=0) adds val=reg2[3]=7. Starting from reg3[2]=0:
  // 0*4, *4, *4, *4 = 0, then +7 => 7.
  const auto pvsm = compile_src(apps::figure3_source());
  banzai::ReferenceSwitch sw(pvsm);
  auto mk = [&](Value h1, Value h2, Value h3, Value mux) {
    std::vector<Value> headers(pvsm.num_slots(), 0);
    headers[static_cast<std::size_t>(pvsm.slot_of("h1"))] = h1;
    headers[static_cast<std::size_t>(pvsm.slot_of("h2"))] = h2;
    headers[static_cast<std::size_t>(pvsm.slot_of("h3"))] = h3;
    headers[static_cast<std::size_t>(pvsm.slot_of("mux"))] = mux;
    return headers;
  };
  for (int i = 0; i < 4; ++i) {
    const auto out = sw.process(mk(1, 1, 2, 1));
    EXPECT_EQ(out[static_cast<std::size_t>(pvsm.slot_of("val"))], 4);
  }
  const auto out = sw.process(mk(1, 3, 2, 0));
  EXPECT_EQ(out[static_cast<std::size_t>(pvsm.slot_of("val"))], 7);
  EXPECT_EQ(sw.registers()[2][2], 7); // reg3[2]
}

TEST(Reference, AccessLogRecordsArrivalOrderPerState) {
  const auto pvsm = compile_src(R"(
    struct Packet { int key; };
    int r[4] = {0};
    void f(struct Packet p) { r[p.key % 4] = r[p.key % 4] + 1; }
  )");
  banzai::ReferenceSwitch sw(pvsm);
  const auto key_slot = static_cast<std::size_t>(pvsm.slot_of("key"));
  for (const Value key : {0, 1, 0, 1, 0}) {
    std::vector<Value> headers(pvsm.num_slots(), 0);
    headers[key_slot] = key;
    sw.process(std::move(headers));
  }
  const auto& log = sw.accesses();
  EXPECT_EQ(log.order.at(banzai::AccessLog::key(0, 0)),
            (std::vector<SeqNo>{0, 2, 4}));
  EXPECT_EQ(log.order.at(banzai::AccessLog::key(0, 1)),
            (std::vector<SeqNo>{1, 3}));
}

TEST(Reference, GuardedAccessesOnlyLoggedWhenTaken) {
  const auto pvsm = compile_src(R"(
    struct Packet { int x; };
    int r = 0;
    void f(struct Packet p) { if (p.x > 0) { r = r + 1; } }
  )");
  banzai::ReferenceSwitch sw(pvsm);
  const auto x_slot = static_cast<std::size_t>(pvsm.slot_of("x"));
  for (const Value x : {1, 0, 1}) {
    std::vector<Value> headers(pvsm.num_slots(), 0);
    headers[x_slot] = x;
    sw.process(std::move(headers));
  }
  EXPECT_EQ(sw.registers()[0][0], 2);
  EXPECT_EQ(sw.accesses().order.at(banzai::AccessLog::key(0, 0)),
            (std::vector<SeqNo>{0, 2}));
}

TEST(Reference, BroadcastInitializerFillsArray) {
  const auto pvsm = compile_src(R"(
    struct Packet { int x; };
    int r[4] = {9};
    void f(struct Packet p) { p.x = r[0]; }
  )");
  banzai::ReferenceSwitch sw(pvsm);
  EXPECT_EQ(pvsm.initial_registers()[0], (std::vector<Value>{9, 9, 9, 9}));
}

TEST(Reference, MultiElementInitializerIsPositional) {
  const auto pvsm = compile_src(R"(
    struct Packet { int x; };
    int r[4] = {1, 2};
    void f(struct Packet p) { p.x = r[0]; }
  )");
  EXPECT_EQ(pvsm.initial_registers()[0], (std::vector<Value>{1, 2, 0, 0}));
}

TEST(Reference, DivisionByZeroIsTotal) {
  const auto pvsm = compile_src(R"(
    struct Packet { int x; int y; };
    void f(struct Packet p) { p.x = p.x / p.y; p.y = 7 % p.y; }
  )");
  banzai::ReferenceSwitch sw(pvsm);
  std::vector<Value> headers(pvsm.num_slots(), 0);
  headers[0] = 5; // x
  headers[1] = 0; // y
  const auto out = sw.process(std::move(headers));
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
}


TEST(Reference, FieldSwapThroughTemp) {
  // Regression: egress write-back is a parallel assignment; a swap via a
  // temp field must not let one write-back observe the other's result.
  const auto pvsm = compile_src(R"(
    struct Packet { int a; int b; int t; };
    void f(struct Packet p) {
      p.t = p.a;
      p.a = p.b;
      p.b = p.t;
    }
  )");
  banzai::ReferenceSwitch sw(pvsm);
  std::vector<Value> headers(pvsm.num_slots(), 0);
  headers[static_cast<std::size_t>(pvsm.slot_of("a"))] = 19;
  headers[static_cast<std::size_t>(pvsm.slot_of("b"))] = 12;
  const auto out = sw.process(std::move(headers));
  EXPECT_EQ(out[static_cast<std::size_t>(pvsm.slot_of("a"))], 12);
  EXPECT_EQ(out[static_cast<std::size_t>(pvsm.slot_of("b"))], 19);
}

TEST(Reference, FieldAliasReadsOriginalValue) {
  // Regression (found by the differential fuzzer): p.b = p.a followed by a
  // later write to p.a must leave p.b with the original value.
  const auto pvsm = compile_src(R"(
    struct Packet { int a; int b; };
    void f(struct Packet p) {
      p.b = p.a;
      p.a = 12;
    }
  )");
  banzai::ReferenceSwitch sw(pvsm);
  std::vector<Value> headers(pvsm.num_slots(), 0);
  headers[static_cast<std::size_t>(pvsm.slot_of("a"))] = 19;
  const auto out = sw.process(std::move(headers));
  EXPECT_EQ(out[static_cast<std::size_t>(pvsm.slot_of("a"))], 12);
  EXPECT_EQ(out[static_cast<std::size_t>(pvsm.slot_of("b"))], 19);
}

// kHash through ir::exec_instr for arities 0-6: arities 2, 3 and 5 take
// the dedicated hash2/hash3/hash5, every other arity folds h = hash2(h, v)
// from h = 0. The goldens pin both paths for every executor built on
// exec_instr.
TEST(IrExec, HashGoldenAcrossArities) {
  constexpr Value kGolden[7] = {
      0,                   6133712765027237408, 6226814378140978288,
      6983973517301578875, 4552390297836465068, 4652204005175002114,
      6599319990965026970};
  std::vector<Value> headers = {11, -5, Value{1} << 40, 3, 0, 99, 7, 0};
  const ir::Slot dst = 7;
  ir::FlatRegFile regs({});
  for (std::size_t arity = 0; arity <= 6; ++arity) {
    ir::TacInstr instr;
    instr.op = ir::TacOp::kHash;
    instr.dst = dst;
    for (std::size_t i = 0; i < arity; ++i) {
      // Alternate header slots and constants, one of them negative.
      instr.hash_args.push_back(
          i % 2 == 0 ? ir::Operand::make_slot(static_cast<ir::Slot>(i))
                     : ir::Operand::make_const(static_cast<Value>(i) * 7 - 10));
    }
    ir::exec_instr(instr, headers, regs, {});
    EXPECT_EQ(headers[dst], kGolden[arity]) << "arity " << arity;
  }
}

// exec_pure runs the same instructions as exec_instr minus the register
// ports: a failing guard skips the instruction, a passing one executes it,
// and kRegRead/kRegWrite never execute, so no register file is needed.
TEST(IrExec, PureExecutionHonoursGuardsAndSkipsRegisterPorts) {
  const auto instr = [](ir::TacOp op, ir::Slot dst, ir::Slot guard,
                        bool negate) {
    ir::TacInstr i;
    i.op = op;
    i.dst = dst;
    i.a = ir::Operand::make_const(7);
    i.reg = 0;
    i.index = ir::Operand::make_const(0);
    i.guard = guard;
    i.guard_negate = negate;
    return i;
  };
  // Slot 0 is the guard: 0, so a plain guard fails and a negated one passes.
  const std::vector<ir::TacInstr> body = {
      instr(ir::TacOp::kCopy, 1, 0, false),
      instr(ir::TacOp::kCopy, 2, 0, true),
      instr(ir::TacOp::kCopy, 3, ir::kNoSlot, false),
      instr(ir::TacOp::kRegRead, 4, ir::kNoSlot, false),
      instr(ir::TacOp::kRegWrite, ir::kNoSlot, ir::kNoSlot, false),
  };
  std::vector<Value> headers = {0, -1, -1, -1, -1};
  ir::exec_pure(body, headers);
  EXPECT_EQ(headers, (std::vector<Value>{0, -1, 7, 7, -1}));

  // exec_instr agrees on the pure instructions and performs the ports.
  ir::FlatRegFile regs(std::vector<std::vector<Value>>{{5}});
  const std::vector<ir::RegisterSpec> specs = {{"r", 1, {}}};
  std::vector<Value> full = {0, -1, -1, -1, -1};
  for (const auto& i : body) ir::exec_instr(i, full, regs, specs);
  EXPECT_EQ(full, (std::vector<Value>{0, -1, 7, 7, 5}));
  EXPECT_EQ(regs.read(0, 0), 7);

  headers[0] = 1; // guard passes now
  ir::exec_pure(body.front(), headers);
  EXPECT_EQ(headers[1], 7);
}

} // namespace
} // namespace mp5
