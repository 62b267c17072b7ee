#include "native/results.hpp"

#include "telemetry/run_envelope.hpp"

namespace mp5::native {

using telemetry::JsonWriter;

std::uint64_t native_result_digest(const ir::Pvsm& program,
                                   const NativeResult& result) {
  Fnv1aDigest d;
  d.add(result.packets);
  return final_state_digest(program, result.final_registers,
                            result.egress_fields, d);
}

void write_native_results_json(std::ostream& out, const std::string& program,
                               const ir::Pvsm& pvsm, const NativeOptions& opts,
                               const NativeResult& result,
                               const EquivalenceReport* oracle) {
  telemetry::RunEnvelope doc(out, "mp5-native-results");
  JsonWriter& json = doc.json();
  json.key("meta")
      .begin_object()
      .kv("program", program)
      .kv("cores", opts.workers)
      .kv("batch", opts.batch)
      .kv("ring_capacity", opts.ring_capacity)
      .kv("pool_packets", opts.pool_packets)
      .kv("policy", to_string(opts.policy))
      .kv("rebalance_packets", opts.rebalance_packets)
      .kv("seed", opts.seed)
      .kv("pinned", opts.pin_threads)
      .end_object();
  json.key("throughput").begin_object().kv("packets", result.packets);
  json.end_object();
  json.key("sharding").begin_object().kv("policy", to_string(opts.policy));
  json.end_object();
  json.key("oracle").begin_object().kv("checked", oracle != nullptr);
  json.key("equivalent");
  if (oracle != nullptr) json.value(oracle->equivalent());
  else json.null();
  json.end_object();

  doc.finish(native_result_digest(pvsm, result), [&](JsonWriter& profile) {
    profile.begin_object();
    profile.key("throughput")
        .begin_object()
        .kv("seconds", result.seconds)
        .kv("pkts_per_sec", result.pkts_per_sec)
        .end_object();
    profile.key("sharding")
        .begin_object()
        .kv("moves", result.shard_moves)
        .kv("rebalances", result.rebalances)
        .end_object();
    const NativeProfile& prof = result.profile;
    profile.key("profiler").begin_object().key("workers").begin_array();
    for (const WorkerStats& w : prof.workers) {
      profile.begin_object()
          .kv("hops", w.hops)
          .kv("stages", w.stages)
          .kv("accesses", w.accesses)
          .kv("forwards", w.forwards)
          .kv("parks", w.parks)
          .kv("idle_spins", w.idle_spins)
          .kv("busy_ns", w.busy_ns)
          .kv("idle_ns", w.idle_ns)
          .end_object();
    }
    profile.end_array();
    const DispatcherStats& d = prof.dispatcher;
    profile.key("dispatcher")
        .begin_object()
        .kv("admitted", d.admitted)
        .kv("reaped", d.reaped)
        .kv("idle_spins", d.idle_spins)
        .kv("pool_full", d.pool_full)
        .kv("busy_ns", d.busy_ns)
        .kv("idle_ns", d.idle_ns)
        .end_object();
    profile.key("registers").begin_array();
    for (const RegisterStats& r : prof.registers) {
      profile.begin_object()
          .kv("name", r.name)
          .kv("claimed", r.claimed)
          .kv("performed", r.performed)
          .kv("remote", r.remote)
          .kv("parks", r.parks)
          .kv("busiest_owner", r.busiest_owner)
          .kv("busiest_owner_accesses", r.busiest_owner_accesses)
          .kv("owner_share", r.owner_share)
          .end_object();
    }
    profile.end_array().key("serializing_register");
    if (prof.serializing_register.empty()) profile.null();
    else profile.value(prof.serializing_register);
    profile.kv("serial_fraction", prof.serial_fraction).end_object();
    profile.end_object();
  });
}

} // namespace mp5::native
