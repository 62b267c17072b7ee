#include <gtest/gtest.h>

#include <string>

#include "common/serialize.hpp"
#include "goldens.hpp"
#include "mp5/stage_fifo.hpp"

namespace mp5 {
namespace {

// The FIFO stores opaque arena references; the tests don't need a real
// arena, so they use `ref == seq` and check the ref round-trips.
PacketRef ref_for(SeqNo seq) { return static_cast<PacketRef>(seq); }

using Kind = StageFifo::PopResult::Kind;

TEST(StageFifo, PhantomBlocksUntilDataInserted) {
  StageFifo fifo(2, 0, false);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 5, 0));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
  ASSERT_TRUE(fifo.insert_data(0, ref_for(0)));
  const auto r = fifo.pop();
  ASSERT_EQ(r.kind, Kind::kData);
  EXPECT_EQ(r.ref, ref_for(0));
  EXPECT_EQ(fifo.pop().kind, Kind::kIdle);
}

TEST(StageFifo, PopPicksSmallestTimestampAcrossLanes) {
  StageFifo fifo(2, 0, false);
  ASSERT_TRUE(fifo.push_phantom(3, 0, 0, 1));
  ASSERT_TRUE(fifo.push_phantom(5, 0, 1, 0));
  ASSERT_TRUE(fifo.insert_data(5, ref_for(5)));
  // Lane 0's head (seq 5, data) must wait for lane 1's head (seq 3).
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
  ASSERT_TRUE(fifo.insert_data(3, ref_for(3)));
  EXPECT_EQ(fifo.pop().ref, ref_for(3));
  EXPECT_EQ(fifo.pop().ref, ref_for(5));
}

TEST(StageFifo, LaterDataBlockedBehindEarlierPhantom) {
  // The Figure 3 Table III scenario: E's data is present but D's phantom
  // precedes it in the same lane.
  StageFifo fifo(1, 0, false);
  ASSERT_TRUE(fifo.push_phantom(3, 0, 2, 0)); // D
  ASSERT_TRUE(fifo.push_phantom(4, 0, 2, 0)); // E
  ASSERT_TRUE(fifo.insert_data(4, ref_for(4)));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
  ASSERT_TRUE(fifo.insert_data(3, ref_for(3)));
  EXPECT_EQ(fifo.pop().ref, ref_for(3));
  EXPECT_EQ(fifo.pop().ref, ref_for(4));
}

TEST(StageFifo, BoundedLaneDropsPhantom) {
  StageFifo fifo(1, 2, false);
  EXPECT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  EXPECT_TRUE(fifo.push_phantom(1, 0, 0, 0));
  EXPECT_FALSE(fifo.push_phantom(2, 0, 0, 0)); // lane full
  EXPECT_FALSE(fifo.has_phantom(2));
  // The data packet for the dropped phantom cannot be inserted.
  EXPECT_FALSE(fifo.insert_data(2, ref_for(2)));
}

TEST(StageFifo, CancelledPhantomCostsOneWastedPop) {
  StageFifo fifo(1, 0, false);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 0, 0));
  ASSERT_TRUE(fifo.insert_data(1, ref_for(1)));
  fifo.cancel(0);
  EXPECT_EQ(fifo.pop().kind, Kind::kWasted); // reclaiming costs a cycle
  EXPECT_EQ(fifo.pop().ref, ref_for(1));
}

TEST(StageFifo, CancelAfterDropIsNoOp) {
  StageFifo fifo(1, 1, false);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  ASSERT_FALSE(fifo.push_phantom(1, 0, 0, 0));
  fifo.cancel(1); // dropped phantom: nothing to cancel
  EXPECT_EQ(fifo.size(), 1u);
}

TEST(StageFifo, HighWaterTracksPeakOccupancy) {
  StageFifo fifo(2, 0, false);
  for (SeqNo s = 0; s < 6; ++s) {
    ASSERT_TRUE(fifo.push_phantom(s, 0, 0, s % 2));
  }
  for (SeqNo s = 0; s < 6; ++s) ASSERT_TRUE(fifo.insert_data(s, ref_for(s)));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(fifo.pop().kind, Kind::kData);
  EXPECT_EQ(fifo.high_water(), 6u);
  EXPECT_EQ(fifo.size(), 0u);
}

TEST(StageFifoIdeal, PerIndexOrderingAvoidsHolBlocking) {
  StageFifo fifo(2, 0, true);
  // Index 7 is blocked by a phantom (seq 0); index 9's data (seq 1) is
  // independently serviceable in the ideal design.
  ASSERT_TRUE(fifo.push_phantom(0, 0, 7, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 9, 1));
  ASSERT_TRUE(fifo.insert_data(1, ref_for(1)));
  const auto r = fifo.pop();
  ASSERT_EQ(r.kind, Kind::kData);
  EXPECT_EQ(r.ref, ref_for(1));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked);
}

TEST(StageFifoIdeal, StillOrdersWithinAnIndex) {
  StageFifo fifo(1, 0, true);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 7, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 7, 0));
  ASSERT_TRUE(fifo.insert_data(1, ref_for(1)));
  EXPECT_EQ(fifo.pop().kind, Kind::kBlocked); // seq 1 behind seq 0's phantom
  ASSERT_TRUE(fifo.insert_data(0, ref_for(0)));
  EXPECT_EQ(fifo.pop().ref, ref_for(0));
  EXPECT_EQ(fifo.pop().ref, ref_for(1));
}

TEST(StageFifoIdeal, CancelledEntriesReclaimedForFree) {
  StageFifo fifo(1, 0, true);
  ASSERT_TRUE(fifo.push_phantom(0, 0, 7, 0));
  ASSERT_TRUE(fifo.push_phantom(1, 0, 7, 0));
  ASSERT_TRUE(fifo.insert_data(1, ref_for(1)));
  fifo.cancel(0);
  const auto r = fifo.pop(); // no kWasted in the ideal design
  ASSERT_EQ(r.kind, Kind::kData);
  EXPECT_EQ(r.ref, ref_for(1));
}

// FNV-1a over the bytes of StageFifo's listing after a fixed push / insert /
// cancel / pop script. The script keeps more phantoms outstanding than
// the directory's first capacity, leaves phantom, data and cancelled
// entries queued on every lane, and the payload must round-trip through
// a load. The goldens pin the mp5-checkpoint v1 bytes of a FIFO.
std::uint64_t scripted_save_digest(bool ideal) {
  StageFifo fifo(3, 0, ideal);
  const auto push = [&](SeqNo s) {
    ASSERT_TRUE(fifo.push_phantom(s, static_cast<RegId>(s % 2),
                                  static_cast<RegIndex>((s * 7) % 5),
                                  static_cast<PipelineId>(s % 3), 100 + s));
  };
  for (SeqNo s = 0; s < 48; ++s) push(s);
  for (SeqNo s = 0; s < 48; ++s) {
    if (s % 4 != 3) {
      EXPECT_TRUE(fifo.insert_data(s, ref_for(s)));
    } else if (s % 8 == 3) {
      fifo.cancel(s);
    }
  }
  for (int i = 0; i < 10; ++i) fifo.pop();
  for (SeqNo s = 48; s < 60; ++s) push(s);
  fifo.check_invariants(0);
  ByteWriter w;
  save_fields(w, fifo);

  StageFifo restored(3, 0, ideal);
  ByteReader r(w.buffer());
  load_fields(r, restored);
  ByteWriter again;
  save_fields(again, restored);
  EXPECT_EQ(again.buffer(), w.buffer()) << "save/load/save is not stable";

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : w.buffer()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(StageFifoCheckpoint, SavePayloadMatchesGolden) {
  test::expect_golden("frame_stage_fifo_lanes", scripted_save_digest(false));
  test::expect_golden("frame_stage_fifo_ideal", scripted_save_digest(true));
}

} // namespace
} // namespace mp5
