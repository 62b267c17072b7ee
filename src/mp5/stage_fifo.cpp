#include "mp5/stage_fifo.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace mp5 {
namespace {

/// Locate an entry by seq in a seq-sorted deque.
FifoEntry* find_by_seq(std::deque<FifoEntry>& queue, SeqNo seq) {
  auto it = std::lower_bound(
      queue.begin(), queue.end(), seq,
      [](const FifoEntry& e, SeqNo s) { return e.seq < s; });
  if (it == queue.end() || it->seq != seq) return nullptr;
  return &*it;
}

} // namespace

StageFifo::StageFifo(std::uint32_t lanes, std::size_t capacity, bool ideal)
    : ideal_(ideal) {
  if (lanes == 0) throw ConfigError("StageFifo: lanes must be > 0");
  if (!ideal_) {
    lanes_.reserve(lanes);
    for (std::uint32_t i = 0; i < lanes; ++i) lanes_.emplace_back(capacity);
  }
}

bool StageFifo::push_phantom(SeqNo seq, RegId reg, RegIndex index,
                             PipelineId lane, Cycle now) {
  FifoEntry entry;
  entry.kind = FifoEntry::Kind::kPhantom;
  entry.seq = seq;
  entry.enqueued = now;
  entry.reg = reg;
  entry.index = index;
  if (ideal_) {
    const IndexKey key = make_key(reg, index);
    if (pressure_ != 0) {
      auto it = queues_.find(key);
      if (it != queues_.end() && it->second.size() >= pressure_) {
        return false; // forced-pressure fault: treat the queue as full
      }
    }
    queues_[key].push_back(std::move(entry));
    seq_key_[seq] = key;
    directory_.insert_or_assign(seq, Address{lane, 0});
  } else {
    if (pressure_ != 0 && lanes_[lane].size() >= pressure_) {
      return false; // forced-pressure fault: treat the lane as full
    }
    auto vidx = lanes_[lane].push(std::move(entry));
    if (!vidx) return false; // dropped: lane full
    directory_.insert_or_assign(seq, Address{lane, *vidx});
  }
  ++live_entries_;
  high_water_ = std::max(high_water_, live_entries_);
  return true;
}

bool StageFifo::insert_data(SeqNo seq, PacketRef ref) {
  const Address* addr = directory_.find(seq);
  if (addr == nullptr) return false;
  if (ideal_) {
    const IndexKey key = seq_key_.at(seq);
    auto& queue = queues_.at(key);
    FifoEntry* entry = find_by_seq(queue, seq);
    if (entry == nullptr || entry->kind != FifoEntry::Kind::kPhantom) {
      throw Error("StageFifo::insert_data: entry is not a phantom");
    }
    entry->kind = FifoEntry::Kind::kData;
    entry->ref = ref;
    if (&queue.front() == entry) eligible_[seq] = key;
  } else {
    auto& entry = lanes_[addr->lane].at(addr->vidx);
    if (entry.kind != FifoEntry::Kind::kPhantom) {
      throw Error("StageFifo::insert_data: entry is not a phantom");
    }
    entry.kind = FifoEntry::Kind::kData;
    entry.ref = ref;
  }
  directory_.erase(seq);
  return true;
}

bool StageFifo::cancel(SeqNo seq) {
  const Address* addr = directory_.find(seq);
  if (addr == nullptr) return false; // phantom was dropped
  if (ideal_) {
    const IndexKey key = seq_key_.at(seq);
    auto& queue = queues_.at(key);
    FifoEntry* entry = find_by_seq(queue, seq);
    if (entry == nullptr || entry->kind != FifoEntry::Kind::kPhantom) {
      throw Error("StageFifo::cancel: entry is not a phantom");
    }
    entry->kind = FifoEntry::Kind::kCancelled;
    directory_.erase(seq);
    ideal_settle_front(key); // free reclamation in the ideal design
  } else {
    auto& entry = lanes_[addr->lane].at(addr->vidx);
    if (entry.kind != FifoEntry::Kind::kPhantom) {
      throw Error("StageFifo::cancel: entry is not a phantom");
    }
    entry.kind = FifoEntry::Kind::kCancelled;
    directory_.erase(seq);
  }
  return true;
}

void StageFifo::ideal_settle_front(IndexKey key) {
  auto qit = queues_.find(key);
  if (qit == queues_.end()) return;
  auto& queue = qit->second;
  while (!queue.empty() &&
         queue.front().kind == FifoEntry::Kind::kCancelled) {
    seq_key_.erase(queue.front().seq);
    queue.pop_front();
    --live_entries_;
  }
  if (queue.empty()) {
    queues_.erase(qit);
    return;
  }
  if (queue.front().kind == FifoEntry::Kind::kData) {
    eligible_[queue.front().seq] = key;
  }
}

std::optional<Cycle> StageFifo::oldest_head_enqueue() const {
  std::optional<Cycle> oldest;
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      if (queue.empty()) continue;
      if (!oldest || queue.front().enqueued < *oldest) {
        oldest = queue.front().enqueued;
      }
    }
    return oldest;
  }
  for (const auto& lane : lanes_) {
    if (lane.empty()) continue;
    if (!oldest || lane.front().enqueued < *oldest) {
      oldest = lane.front().enqueued;
    }
  }
  return oldest;
}

StageFifo::PopResult StageFifo::pop() {
  return ideal_ ? pop_ideal() : pop_lanes();
}

bool StageFifo::head_blocked() const {
  if (ideal_) return eligible_.empty() && live_entries_ != 0;
  const FifoEntry* head = nullptr;
  for (const auto& lane : lanes_) {
    if (!lane.empty() && (head == nullptr || lane.front().seq < head->seq)) {
      head = &lane.front();
    }
  }
  return head != nullptr && head->kind == FifoEntry::Kind::kPhantom;
}

std::vector<PacketRef> StageFifo::drain_all() {
  std::vector<PacketRef> data;
  if (ideal_) {
    for (auto& [key, queue] : queues_) {
      for (auto& entry : queue) {
        if (entry.kind == FifoEntry::Kind::kData) {
          data.push_back(entry.ref);
        }
      }
    }
    queues_.clear();
    eligible_.clear();
    seq_key_.clear();
  } else {
    for (auto& lane : lanes_) {
      while (!lane.empty()) {
        if (lane.front().kind == FifoEntry::Kind::kData) {
          data.push_back(lane.front().ref);
        }
        lane.pop_front();
      }
    }
  }
  directory_.clear();
  live_entries_ = 0;
  return data;
}

std::vector<PacketRef> StageFifo::extract_data_if(
    const std::function<bool(PacketRef)>& pred) {
  std::vector<PacketRef> out;
  if (ideal_) {
    for (auto& [key, queue] : queues_) {
      for (auto& entry : queue) {
        if (entry.kind == FifoEntry::Kind::kData && pred(entry.ref)) {
          out.push_back(entry.ref);
          entry.ref = kNullPacketRef;
          entry.kind = FifoEntry::Kind::kCancelled;
          eligible_.erase(entry.seq);
        }
      }
    }
    if (!out.empty()) {
      // Reclaim any queue whose front just became cancelled (settling can
      // erase map entries, so iterate over a key snapshot).
      std::vector<IndexKey> keys;
      keys.reserve(queues_.size());
      for (const auto& [key, queue] : queues_) keys.push_back(key);
      for (const IndexKey key : keys) ideal_settle_front(key);
    }
  } else {
    for (auto& lane : lanes_) {
      if (lane.empty()) continue;
      for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
        auto& entry = lane.at(v);
        if (entry.kind == FifoEntry::Kind::kData && pred(entry.ref)) {
          out.push_back(entry.ref);
          entry.ref = kNullPacketRef;
          entry.kind = FifoEntry::Kind::kCancelled;
        }
      }
    }
  }
  return out;
}

void StageFifo::for_each_entry(
    const std::function<void(const FifoEntry&)>& fn) const {
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      for (const auto& entry : queue) fn(entry);
    }
    return;
  }
  for (const auto& lane : lanes_) {
    if (lane.empty()) continue;
    for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
      fn(lane.at(v));
    }
  }
}

void StageFifo::check_invariants(Cycle now, bool check_order) const {
  std::size_t counted = 0;
  std::size_t phantoms = 0;
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      SeqNo prev = 0;
      bool first = true;
      for (const auto& entry : queue) {
        ++counted;
        if (entry.kind == FifoEntry::Kind::kPhantom) ++phantoms;
        if (entry.kind == FifoEntry::Kind::kEmpty) {
          throw InvariantError("fifo-entry", now, "empty entry queued");
        }
        auto it = seq_key_.find(entry.seq);
        if (it == seq_key_.end() || it->second != key) {
          throw InvariantError("phantom-directory", now,
                               "seq->index map out of sync for seq " +
                                   std::to_string(entry.seq));
        }
        if (check_order && !first && entry.seq <= prev) {
          throw InvariantError("invariant-1", now,
                               "per-index queue not in arrival order");
        }
        prev = entry.seq;
        first = false;
      }
    }
    for (const auto& [seq, key] : eligible_) {
      auto it = queues_.find(key);
      if (it == queues_.end() || it->second.empty() ||
          it->second.front().seq != seq ||
          it->second.front().kind != FifoEntry::Kind::kData) {
        throw InvariantError("eligible-set", now,
                             "eligible entry is not a data head");
      }
    }
  } else {
    for (const auto& lane : lanes_) {
      if (lane.empty()) continue;
      SeqNo prev = 0;
      bool first = true;
      for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
        const FifoEntry& entry = lane.at(v);
        ++counted;
        if (entry.kind == FifoEntry::Kind::kPhantom) ++phantoms;
        if (entry.kind == FifoEntry::Kind::kEmpty) {
          throw InvariantError("fifo-entry", now, "empty entry queued");
        }
        if (check_order && !first && entry.seq <= prev) {
          throw InvariantError(
              "invariant-1", now,
              "lane not in arrival order: seq " + std::to_string(entry.seq) +
                  " behind " + std::to_string(prev));
        }
        prev = entry.seq;
        first = false;
      }
    }
  }
  if (counted != live_entries_) {
    throw InvariantError("fifo-occupancy", now,
                         "live_entries=" + std::to_string(live_entries_) +
                             " but " + std::to_string(counted) +
                             " entries queued");
  }
  if (phantoms != directory_.size()) {
    throw InvariantError("phantom-directory", now,
                         std::to_string(phantoms) + " queued phantoms vs " +
                             std::to_string(directory_.size()) +
                             " directory entries");
  }
  directory_.for_each([&](SeqNo seq, const Address& addr) {
    const FifoEntry* entry = nullptr;
    if (ideal_) {
      auto kit = seq_key_.find(seq);
      if (kit != seq_key_.end()) {
        auto qit = queues_.find(kit->second);
        if (qit != queues_.end()) {
          entry = find_by_seq(const_cast<std::deque<FifoEntry>&>(qit->second),
                              seq);
        }
      }
    } else {
      if (addr.lane < lanes_.size() && lanes_[addr.lane].contains(addr.vidx)) {
        entry = &lanes_[addr.lane].at(addr.vidx);
      }
    }
    if (entry == nullptr || entry->seq != seq ||
        entry->kind != FifoEntry::Kind::kPhantom) {
      throw InvariantError("phantom-directory", now,
                           "directory entry for seq " + std::to_string(seq) +
                               " does not address a queued phantom");
    }
  });
}

namespace {

template <class Io> void transfer_entry(Io& io, FifoEntry& entry) {
  io.u8_enum(entry.kind, FifoEntry::Kind::kCancelled,
             "checkpoint: invalid FifoEntry kind");
  io.u64(entry.seq);
  io.u64(entry.enqueued);
  io.u32(entry.reg);
  io.u32(entry.index);
  io.u32(entry.ref);
}

} // namespace

template <class Io> void StageFifo::transfer(Io& io) {
  bool ideal = ideal_;
  io.boolean(ideal);
  io.check(ideal == ideal_, "checkpoint: StageFifo ideal-mode mismatch");
  io.check(live_entries_ == 0,
           "checkpoint: StageFifo load target is not empty");
  if (ideal_) {
    // seq_key_ is derivable from queues_ and not written.
    io.sorted(queues_, 8, [&](auto& kv) {
      io.u64(kv.first);
      io.seq(kv.second, 8, [&](FifoEntry& e) { transfer_entry(io, e); });
      io.check(!kv.second.empty(), "checkpoint: empty ideal queue serialized");
    });
    io.sorted(eligible_, 16, [&](auto& kv) {
      io.u64(kv.first);
      io.u64(kv.second);
    });
    if constexpr (Io::kLoad) {
      seq_key_.clear();
      for (const auto& [key, queue] : queues_) {
        for (const FifoEntry& entry : queue) seq_key_[entry.seq] = key;
      }
    }
  } else {
    io.size_equal(lanes_.size(), "checkpoint: StageFifo lane count mismatch");
    for (auto& lane : lanes_) {
      std::uint64_t base = lane.base_vidx();
      std::uint64_t size = lane.size();
      std::uint64_t lane_hw = lane.high_water_mark();
      io.u64(base);
      io.u64(size);
      io.u64(lane_hw);
      io.check(size <= lane_hw,
               "checkpoint: StageFifo lane size exceeds high water");
      // restore_base re-establishes the virtual-index origin, so each
      // push below reproduces the checkpointed run's vidx values exactly
      // (the directory below addresses entries by them).
      if constexpr (Io::kLoad) {
        lane.restore_base(base, static_cast<std::size_t>(lane_hw));
      }
      for (std::uint64_t i = 0; i < size; ++i) {
        FifoEntry entry;
        if constexpr (!Io::kLoad) entry = lane.at(base + i);
        transfer_entry(io, entry);
        if constexpr (Io::kLoad) {
          io.check(lane.push(entry).has_value(),
                   "checkpoint: StageFifo lane overflow on restore");
        }
      }
    }
  }
  // directory_ iterates in table order: written sorted by seq for a
  // byte-stable payload.
  std::vector<std::pair<SeqNo, Address>> dir;
  if constexpr (!Io::kLoad) {
    dir.reserve(directory_.size());
    directory_.for_each(
        [&](SeqNo seq, const Address& addr) { dir.emplace_back(seq, addr); });
    std::sort(dir.begin(), dir.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  io.seq(dir, 20, [&](std::pair<SeqNo, Address>& entry) {
    auto& [seq, addr] = entry;
    io.u64(seq);
    io.u32(addr.lane);
    io.u64(addr.vidx);
    io.check(ideal_ || (addr.lane < lanes_.size() &&
                        lanes_[addr.lane].contains(addr.vidx)),
             "checkpoint: FIFO directory addresses a stale entry");
  });
  if constexpr (Io::kLoad) {
    directory_.clear();
    for (const auto& [seq, addr] : dir) directory_.insert_or_assign(seq, addr);
  }
  io.u64(live_entries_);
  io.u64(high_water_);
}

// The simulators list this class inside their own transfer().
template void StageFifo::transfer(SaveIo&);
template void StageFifo::transfer(LoadIo&);

StageFifo::PopResult StageFifo::pop_lanes() {
  PopResult result;
  RingFifo<FifoEntry>* best = nullptr;
  SeqNo best_seq = kInvalidSeqNo;
  for (auto& lane : lanes_) {
    if (lane.empty()) continue;
    const SeqNo seq = lane.front().seq;
    if (best == nullptr || seq < best_seq) {
      best = &lane;
      best_seq = seq;
    }
  }
  if (best == nullptr) return result; // kIdle
  FifoEntry& head = best->front();
  switch (head.kind) {
    case FifoEntry::Kind::kPhantom:
      result.kind = PopResult::Kind::kBlocked;
      return result;
    case FifoEntry::Kind::kCancelled:
      best->pop_front();
      --live_entries_;
      result.kind = PopResult::Kind::kWasted;
      return result;
    case FifoEntry::Kind::kData:
      result.kind = PopResult::Kind::kData;
      result.ref = head.ref;
      best->pop_front();
      --live_entries_;
      return result;
    case FifoEntry::Kind::kEmpty:
      break;
  }
  throw Error("StageFifo::pop: empty entry at head");
}

StageFifo::PopResult StageFifo::pop_ideal() {
  PopResult result;
  if (eligible_.empty()) {
    result.kind = live_entries_ == 0 ? PopResult::Kind::kIdle
                                     : PopResult::Kind::kBlocked;
    return result;
  }
  const auto [seq, key] = *eligible_.begin();
  eligible_.erase(eligible_.begin());
  auto& queue = queues_.at(key);
  if (queue.front().seq != seq ||
      queue.front().kind != FifoEntry::Kind::kData) {
    throw Error("StageFifo::pop_ideal: eligible set out of sync");
  }
  result.kind = PopResult::Kind::kData;
  result.ref = queue.front().ref;
  seq_key_.erase(seq);
  queue.pop_front();
  --live_entries_;
  ideal_settle_front(key);
  return result;
}

} // namespace mp5
