#include "native/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/host.hpp"
#include "common/rng.hpp"
#include "native/spsc_ring.hpp"
#include "packet/packet.hpp" // kUnresolvedIndex

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace mp5::native {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint16_t kNoOwner = 0xffff;
constexpr std::uint8_t kSkipState = 1; // resolved guard false at dispatch

/// One planned stateful access of one in-flight packet. Written by the
/// dispatcher at admission, read by workers; the packet ref's ring
/// handoff orders the two.
struct PlanEntry {
  std::uint32_t ticket = 0;
  RegIndex index = kUnresolvedIndex; // resolved index (D2 accounting)
  std::uint32_t gate = 0;            // slot in done_[reg]
  std::uint16_t reg = 0;
  std::uint16_t owner = kNoOwner;
  std::uint8_t flags = 0;
};

/// Pin the calling thread to the (core mod n)-th of the n CPUs in its
/// affinity mask, so a restricted mask (taskset, cpusets) is respected.
void pin_current_thread(std::uint32_t core) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n == 0) return;
  int skip = static_cast<int>(core % static_cast<std::uint32_t>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- != 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    // Best effort: failure only costs locality, never correctness.
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    return;
  }
#else
  (void)core;
#endif
}

/// Charge the wall time since `prev` to busy or idle and restart the
/// interval (the profile's per-loop-iteration accounting).
void charge_iteration(bool busy, Clock::time_point& prev,
                      std::uint64_t& busy_ns, std::uint64_t& idle_ns) {
  const auto now = Clock::now();
  (busy ? busy_ns : idle_ns) += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
          .count());
  prev = now;
}

/// Request write ownership of every cache line of `v`.
template <typename T>
void prefetch_for_write(const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const char*>(v.data());
  const auto* end = p + v.size() * sizeof(T);
  const auto misalign = reinterpret_cast<std::uintptr_t>(p) % kCacheLine;
  for (p -= misalign; p < end; p += kCacheLine) __builtin_prefetch(p, 1);
}

} // namespace

struct NativeBackend::Impl {
  const Mp5Program& program;
  NativeOptions opts;
  std::size_t slots = 0;
  std::size_t declared = 0;  // declared fields occupy slots [0, declared)
  std::size_t naccesses = 0;
  std::size_t nregs = 0;

  // (stage, atom) -> ordinal into program.accesses, or -1 for stateless.
  std::vector<std::vector<std::int32_t>> atom_ordinal;

  // Per-(reg, gate) completed-ticket counters. done[r] has reg-size slots
  // for shardable arrays and a single slot for pinned arrays (whole-array
  // serialization at the pin worker). The register values are state.regs();
  // cell-level exclusivity on them comes from shard ownership.
  std::vector<std::vector<std::uint32_t>> done;

  // Dispatcher-private.
  std::vector<std::vector<std::uint32_t>> next_ticket; // same shape as done
  ShardedState state;

  // Packet pool (ref-indexed plain arrays; ring handoffs order access).
  std::vector<std::vector<Value>> headers;
  std::vector<PlanEntry> plans; // pool * naccesses
  std::vector<SeqNo> seq;
  std::vector<std::uint16_t> pos_stage;
  std::vector<std::uint16_t> pos_atom;
  std::vector<std::uint8_t> hopped;

  // Rings.
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> dispatch_ring;
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> egress_ring;
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> xfer_ring; // from*W+to

  /// More runnable threads (workers + dispatcher) than usable CPUs:
  /// spinning then burns scheduler quanta the thread we wait for needs,
  /// so idle paths yield immediately instead of pause-looping.
  bool oversubscribed = false;
  std::atomic<bool> stop{false};
  /// The run failed (the source or a worker threw): nobody reaps egress
  /// any more, so an idle worker leaves without draining.
  std::atomic<bool> abandon{false};
  std::vector<std::exception_ptr> worker_error;
  std::vector<WorkerScratch> scratch;

  Impl(const Mp5Program& prog, const NativeOptions& o)
      : program(prog), opts(o),
        state(prog.pvsm.registers, prog.shardable, o.workers, o.policy,
              Rng(o.seed)) {
    validate();
    const std::uint32_t cpus = host::usable_cpus();
    oversubscribed = cpus != 0 && opts.workers + 1u > cpus;
    slots = program.pvsm.num_slots();
    naccesses = program.accesses.size();
    nregs = program.pvsm.registers.size();
    declared = program.pvsm.declared_prefix();
    build_atom_map();

    done.resize(nregs);
    next_ticket.resize(nregs);
    for (RegId r = 0; r < nregs; ++r) {
      const std::size_t gates =
          program.shardable[r] ? program.pvsm.registers[r].size : 1;
      done[r].assign(gates, 0);
      next_ticket[r].assign(gates, 0);
    }

    const std::uint32_t pool = opts.pool_packets;
    headers.assign(pool, std::vector<Value>(slots, 0));
    plans.assign(static_cast<std::size_t>(pool) * naccesses, PlanEntry{});
    seq.assign(pool, 0);
    pos_stage.assign(pool, 0);
    pos_atom.assign(pool, 0);
    hopped.assign(pool, 0);

    const std::uint32_t w = opts.workers;
    dispatch_ring.resize(w);
    egress_ring.resize(w);
    xfer_ring.resize(static_cast<std::size_t>(w) * w);
    for (std::uint32_t i = 0; i < w; ++i) {
      dispatch_ring[i] =
          std::make_unique<SpscRing<std::uint32_t>>(opts.ring_capacity);
      egress_ring[i] =
          std::make_unique<SpscRing<std::uint32_t>>(opts.ring_capacity);
      for (std::uint32_t j = 0; j < w; ++j) {
        if (i == j) continue;
        xfer_ring[static_cast<std::size_t>(i) * w + j] =
            std::make_unique<SpscRing<std::uint32_t>>(opts.ring_capacity);
      }
    }
    worker_error.resize(w);
    scratch.reserve(w);
    for (std::uint32_t i = 0; i < w; ++i) scratch.emplace_back(nregs);
  }

  void validate() const {
    if (opts.workers < 1 || opts.workers > 64) {
      throw ConfigError("native: workers must be in [1, 64], got " +
                        std::to_string(opts.workers));
    }
    if (opts.batch < 1) throw ConfigError("native: batch must be >= 1");
    if (opts.ring_capacity < 2 * opts.batch) {
      throw ConfigError("native: ring_capacity must be at least 2x batch (" +
                        std::to_string(opts.ring_capacity) + " < 2*" +
                        std::to_string(opts.batch) + ")");
    }
    if (opts.pool_packets <
        2ull * opts.batch * opts.workers) {
      throw ConfigError(
          "native: pool_packets must be >= 2 * batch * workers (need " +
          std::to_string(2ull * opts.batch * opts.workers) + ", got " +
          std::to_string(opts.pool_packets) + ")");
    }
    if (program.pvsm.registers.size() > 0xffff ||
        program.accesses.size() > 0xffff ||
        program.pvsm.stages.size() > 0xfffe) {
      throw ConfigError("native: program too large for the packet plan");
    }
  }

  /// Each register is fused into exactly one stateful atom, so
  /// (pvsm stage, reg) identifies its access descriptor uniquely.
  void build_atom_map() {
    atom_ordinal.resize(program.pvsm.stages.size());
    std::size_t matched = 0;
    for (StageId s = 0; s < program.pvsm.stages.size(); ++s) {
      const auto& atoms = program.pvsm.stages[s].atoms;
      atom_ordinal[s].assign(atoms.size(), -1);
      for (std::size_t a = 0; a < atoms.size(); ++a) {
        if (!atoms[a].stateful()) continue;
        std::int32_t ord = -1;
        for (std::size_t i = 0; i < program.accesses.size(); ++i) {
          const auto& desc = program.accesses[i];
          if (desc.stage == s + 1 && desc.reg == atoms[a].reg) {
            ord = static_cast<std::int32_t>(i);
            break;
          }
        }
        if (ord < 0) {
          throw Error("native: no access descriptor for register '" +
                      program.pvsm.registers[atoms[a].reg].name +
                      "' in stage " + std::to_string(s));
        }
        atom_ordinal[s][a] = ord;
        ++matched;
      }
    }
    if (matched != program.accesses.size()) {
      throw Error("native: access descriptor count mismatch");
    }
  }

  PlanEntry* plan_of(std::uint32_t ref) {
    return plans.data() + static_cast<std::size_t>(ref) * naccesses;
  }

  SpscRing<std::uint32_t>& xfer(std::uint32_t from, std::uint32_t to) {
    return *xfer_ring[static_cast<std::size_t>(from) * opts.workers + to];
  }

  // ---- worker side ------------------------------------------------------

  enum class Outcome { kParked, kForwarded, kEgressed };

  struct OutBufs {
    std::vector<RingBacklog<std::uint32_t>> to; // per destination worker
    RingBacklog<std::uint32_t> egress;

    explicit OutBufs(std::uint32_t workers) : to(workers) {}

    bool pending() const {
      if (!egress.empty()) return true;
      for (const auto& buf : to) {
        if (!buf.empty()) return true;
      }
      return false;
    }
  };

  Outcome run_packet(std::uint32_t me, std::uint32_t ref, WorkerScratch& s,
                     OutBufs& outs) {
    auto& hdr = headers[ref];
    const auto& stages = program.pvsm.stages;
    const auto& specs = program.pvsm.registers;
    std::uint32_t st = pos_stage[ref];
    std::uint32_t at = pos_atom[ref];
    while (st < stages.size()) {
      const auto& atoms = stages[st].atoms;
      while (at < atoms.size()) {
        const ir::Atom& atom = atoms[at];
        const std::int32_t ord = atom_ordinal[st][at];
        if (ord < 0) {
          ir::exec_atom(atom, hdr, state.regs(), specs);
          ++at;
          continue;
        }
        PlanEntry& e = *(plan_of(ref) + ord);
        if (e.flags & kSkipState) {
          // Resolved guard was false at dispatch: the state access cannot
          // happen, but the atom's pure body still runs (its instructions
          // honour their own guards) — simulator pass-through parity.
          ir::exec_pure(atom.body, hdr);
          ++at;
          continue;
        }
        if (e.owner != me) {
          pos_stage[ref] = static_cast<std::uint16_t>(st);
          pos_atom[ref] = static_cast<std::uint16_t>(at);
          hopped[ref] = 1;
          ++s.stats.forwards;
          outs.to[e.owner].push(ref);
          return Outcome::kForwarded;
        }
        std::uint32_t& done_ctr = done[e.reg][e.gate];
        if (done_ctr != e.ticket) {
          // An earlier-admitted claim on this index has not executed yet
          // (its packet is still in flight to this worker). Park; the
          // ticket makes arrival order exact no matter when we retry.
          pos_stage[ref] = static_cast<std::uint16_t>(st);
          pos_atom[ref] = static_cast<std::uint16_t>(at);
          ++s.stats.parks;
          ++s.reg_parks[e.reg];
          return Outcome::kParked;
        }
        bool performed = true;
        if (atom.guard != ir::kNoSlot) {
          const bool truthy =
              hdr[static_cast<std::size_t>(atom.guard)] != 0;
          performed = atom.guard_negate ? !truthy : truthy;
        }
        ir::exec_atom(atom, hdr, state.regs(), specs);
        ++done_ctr;
        ++s.reg_claimed[e.reg];
        if (performed) {
          ++s.stats.accesses;
          ++s.reg_performed[e.reg];
          if (hopped[ref]) ++s.reg_remote[e.reg];
        }
        ++at;
      }
      ++st;
      at = 0;
      ++s.stats.stages;
    }
    outs.egress.push(ref);
    return Outcome::kEgressed;
  }

  void flush_outs(std::uint32_t me, OutBufs& outs) {
    for (std::uint32_t w = 0; w < opts.workers; ++w) {
      if (w != me) outs.to[w].flush(xfer(me, w)); // never forwards to itself
    }
    outs.egress.flush(*egress_ring[me]);
  }

  void worker_main(std::uint32_t me) {
    if (opts.pin_threads) pin_current_thread(me);
    WorkerScratch& s = scratch[me];
    OutBufs outs(opts.workers);
    std::vector<SpscRing<std::uint32_t>*> in;
    in.push_back(dispatch_ring[me].get());
    for (std::uint32_t from = 0; from < opts.workers; ++from) {
      if (from != me) in.push_back(&xfer(from, me));
    }
    std::deque<std::uint32_t> parked;
    std::vector<std::uint32_t> batch(opts.batch);
    const bool profiling = opts.profile;
    auto t_prev = profiling ? Clock::now() : Clock::time_point{};

    while (true) {
      bool did = false;
      // Parked packets first, FIFO: the claim they wait on may have just
      // executed.
      for (std::size_t n = parked.size(); n > 0; --n) {
        const std::uint32_t ref = parked.front();
        parked.pop_front();
        const Outcome out = run_packet(me, ref, s, outs);
        if (out == Outcome::kParked) {
          parked.push_back(ref);
        } else {
          did = true;
        }
      }
      for (auto* ring : in) {
        const std::size_t n = ring->pop_batch(batch.data(), batch.size());
        for (std::size_t i = 0; i < n; ++i) {
          ++s.stats.hops;
          if (run_packet(me, batch[i], s, outs) == Outcome::kParked) {
            parked.push_back(batch[i]);
          }
        }
        did = did || n > 0;
      }
      flush_outs(me, outs);

      if (profiling) {
        charge_iteration(did, t_prev, s.stats.busy_ns, s.stats.idle_ns);
      }
      if (!did) {
        if (abandon.load(std::memory_order_acquire)) return;
        if (stop.load(std::memory_order_acquire) && parked.empty() &&
            !outs.pending()) {
          bool drained = true;
          for (auto* ring : in) drained = drained && ring->empty_consumer();
          if (drained) return;
        }
        ++s.stats.idle_spins;
        if (oversubscribed || (s.stats.idle_spins & 0xfff) == 0) {
          std::this_thread::yield();
        } else {
          cpu_relax();
        }
      }
    }
  }

  // ---- dispatcher side --------------------------------------------------

  void admit(std::uint32_t ref, const TraceItem& item, SeqNo n,
             std::vector<RingBacklog<std::uint32_t>>& outbuf) {
    auto& hdr = headers[ref];
    load_headers(item, program.pvsm, hdr);
    seq[ref] = n;
    pos_stage[ref] = 0;
    pos_atom[ref] = 0;
    hopped[ref] = 0;

    // Address resolution (the D4 resolver): compute every preemptively
    // resolvable index and guard on the arrival headers.
    ir::exec_pure(program.resolver, hdr);

    PlanEntry* plan = plan_of(ref);
    std::uint16_t first_owner = kNoOwner;
    for (std::size_t i = 0; i < naccesses; ++i) {
      const AccessDescriptor& desc = program.accesses[i];
      PlanEntry& e = plan[i];
      e.reg = static_cast<std::uint16_t>(desc.reg);
      const std::optional<RegIndex> index =
          resolve_at_arrival(desc, hdr, program.pvsm.registers);
      if (!index) {
        e.flags = kSkipState; // branch not taken: no claim, no ticket
        continue;
      }
      e.flags = 0;
      e.index = *index;
      e.gate = program.shardable[desc.reg] ? e.index : 0;
      e.ticket = next_ticket[desc.reg][e.gate]++;
      e.owner =
          static_cast<std::uint16_t>(state.pipeline_of(desc.reg, e.index));
      state.note_resolved(desc.reg, e.index);
      if (first_owner == kNoOwner) first_owner = e.owner;
    }
    if (first_owner == kNoOwner) {
      // Stateless packet: spread round-robin.
      first_owner = static_cast<std::uint16_t>(n % opts.workers);
    }
    outbuf[first_owner].push(ref);
  }

  NativeResult run(TraceSource& source) {
    NativeResult result;
    const std::uint32_t w = opts.workers;

    std::vector<std::uint32_t> free_refs(opts.pool_packets);
    for (std::uint32_t i = 0; i < opts.pool_packets; ++i) {
      free_refs[i] = opts.pool_packets - 1 - i;
    }
    std::vector<RingBacklog<std::uint32_t>> outbuf(w);
    std::vector<std::uint32_t> reap(opts.batch);

    std::vector<std::thread> threads;
    threads.reserve(w);
    for (std::uint32_t i = 0; i < w; ++i) {
      threads.emplace_back([this, i] {
        try {
          worker_main(i);
        } catch (...) {
          worker_error[i] = std::current_exception();
          stop.store(true, std::memory_order_release);
        }
      });
    }

    const auto t0 = Clock::now();
    auto t_prev = t0;
    DispatcherStats& ds = result.profile.dispatcher;
    SeqNo admitted = 0;
    SeqNo reaped = 0;
    std::uint64_t last_rebalance = 0;
    const bool moving_policy = opts.policy == ShardingPolicy::kDynamic ||
                               opts.policy == ShardingPolicy::kIdealLpt;
    bool worker_died = false;

    // The source may throw mid-run (a malformed or out-of-order trace
    // line); the workers must be joined before the exception leaves.
    try {
      while (!worker_died) {
        bool did = false;

        // Admit while the pool has free refs, up to one batch per pass.
        const TraceItem* item = nullptr;
        std::uint64_t fresh = 0;
        while (!free_refs.empty() && fresh < opts.batch &&
               (item = source.peek()) != nullptr) {
          const std::uint32_t ref = free_refs.back();
          free_refs.pop_back();
          admit(ref, *item, admitted, outbuf);
          ++admitted;
          ++fresh;
          source.advance();
          did = true;
        }
        if (free_refs.empty()) ++ds.pool_full;
        for (std::uint32_t i = 0; i < w; ++i) {
          outbuf[i].flush(*dispatch_ring[i]);
        }

        // Reap egressed packets: D2 in-flight accounting, the egress sink,
        // ref recycling.
        for (std::uint32_t i = 0; i < w; ++i) {
          const std::size_t n =
              egress_ring[i]->pop_batch(reap.data(), reap.size());
          for (std::size_t p = 0; p < n; ++p) {
            const std::uint32_t ref = reap[p];
            const PlanEntry* plan = plan_of(ref);
            for (std::size_t a = 0; a < naccesses; ++a) {
              if (plan[a].flags & kSkipState) continue;
              state.note_completed(plan[a].reg, plan[a].index);
            }
            if (opts.egress_sink) {
              opts.egress_sink(EgressRecord{
                  seq[ref], 0, 0,
                  std::vector<Value>(headers[ref].begin(),
                                     headers[ref].begin() + declared)});
            }
            free_refs.push_back(ref);
            // The free list is LIFO, so an upcoming admission reuses this
            // ref and overwrites its header, which a worker on another core
            // wrote last. Start the line transfers now instead of stalling
            // the admission's fill on each of them.
            prefetch_for_write(headers[ref]);
            ++reaped;
          }
          did = did || n > 0;
        }

        // Periodic D2 rebalance: ownership of quiescent (in-flight == 0)
        // indices migrates between workers; the dispatcher's ring handoffs
        // carry the happens-before edge from the old owner's last write to
        // the new owner's first read.
        if (moving_policy && opts.rebalance_packets > 0 &&
            reaped - last_rebalance >= opts.rebalance_packets) {
          result.shard_moves += state.rebalance();
          ++result.rebalances;
          last_rebalance = reaped;
        }

        if (opts.profile) {
          charge_iteration(did, t_prev, ds.busy_ns, ds.idle_ns);
        }
        if (admitted == reaped && source.peek() == nullptr) break;
        if (!did) {
          ++ds.idle_spins;
          if (oversubscribed) std::this_thread::yield();
          else cpu_relax();
        }
        for (std::uint32_t i = 0; i < w && !worker_died; ++i) {
          worker_died = worker_error[i] != nullptr;
        }
      }
    } catch (...) {
      abandon.store(true, std::memory_order_release);
      stop.store(true, std::memory_order_release);
      for (auto& t : threads) t.join();
      throw;
    }

    const auto t1 = Clock::now();
    if (worker_died) abandon.store(true, std::memory_order_release);
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    for (std::uint32_t i = 0; i < w; ++i) {
      if (worker_error[i]) std::rethrow_exception(worker_error[i]);
    }

    result.packets = admitted;
    ds.admitted = admitted;
    ds.reaped = reaped;
    result.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    result.pkts_per_sec =
        result.seconds > 0.0 ? static_cast<double>(admitted) / result.seconds
                             : 0.0;
    result.final_registers = state.regs().storage();
    merge_profile(result);
    return result;
  }

  void merge_profile(NativeResult& result) {
    NativeProfile& prof = result.profile;
    prof.workers.reserve(opts.workers);
    for (const auto& s : scratch) prof.workers.push_back(s.stats);

    prof.registers.resize(nregs);
    std::uint64_t best_serial = 0;
    for (RegId r = 0; r < nregs; ++r) {
      RegisterStats& rs = prof.registers[r];
      rs.name = program.pvsm.registers[r].name;
      for (std::uint32_t w = 0; w < opts.workers; ++w) {
        const WorkerScratch& s = scratch[w];
        rs.claimed += s.reg_claimed[r];
        rs.performed += s.reg_performed[r];
        rs.remote += s.reg_remote[r];
        rs.parks += s.reg_parks[r];
        if (s.reg_claimed[r] > rs.busiest_owner_accesses) {
          rs.busiest_owner_accesses = s.reg_claimed[r];
          rs.busiest_owner = w;
        }
      }
      if (rs.claimed > 0) {
        rs.owner_share = static_cast<double>(rs.busiest_owner_accesses) /
                         static_cast<double>(rs.claimed);
      }
      if (rs.busiest_owner_accesses > best_serial) {
        best_serial = rs.busiest_owner_accesses;
        prof.serializing_register = rs.name;
      }
    }
    if (result.packets > 0) {
      prof.serial_fraction = static_cast<double>(best_serial) /
                             static_cast<double>(result.packets);
    }
  }
};

NativeBackend::NativeBackend(const Mp5Program& program,
                             const NativeOptions& opts)
    : impl_(new Impl(program, opts)) {}

NativeBackend::~NativeBackend() { delete impl_; }

NativeResult NativeBackend::run(TraceSource& source) {
  return impl_->run(source);
}

} // namespace mp5::native
