#include "soak/soak_runner.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/simulator.hpp"
#include "soak/rolling_verify.hpp"
#include "soak/rss.hpp"

namespace mp5::soak {

namespace {

void track_rss(SoakReport& report) {
  const RssSample rss = sample_rss();
  report.rss_kib = rss.rss_kib;
  report.peak_rss_kib = std::max(report.peak_rss_kib, rss.peak_kib);
}

} // namespace

SoakReport run_soak(const Mp5Program& program, const SoakOptions& options) {
  if (options.checkpoint_interval != 0 && options.checkpoint_path.empty()) {
    throw ConfigError("soak: checkpoint_interval requires checkpoint_path");
  }
  if (options.resume && options.checkpoint_path.empty()) {
    throw ConfigError("soak: resume requires checkpoint_path");
  }

  SoakReport report;
  SimOptions sim_opts = options.sim;
  // Verification is fully sink-driven; nothing may accumulate per packet.
  sim_opts.record_egress = false;
  sim_opts.checkpoint_interval = options.checkpoint_interval;

  std::unique_ptr<RollingVerifier> verifier;
  if (options.verify) {
    RollingVerifier::Options vopts;
    vopts.max_window = options.verify_window;
    verifier = std::make_unique<RollingVerifier>(
        program.pvsm, open_traffic(options.trace_path, options.synthetic),
        vopts);
    sim_opts.egress_sink = [&v = *verifier](EgressRecord&& rec) {
      v.on_egress(std::move(rec));
    };
    sim_opts.fault_drop_sink = [&v = *verifier](SeqNo seq, bool touched) {
      v.on_fault_drop(seq, touched);
    };
  }

  // Sinks and checkpoint cadence are excluded from the fingerprint, so
  // this matches what the simulator stamps into its own frames.
  const std::uint64_t fp = config_fingerprint(program, sim_opts);

  if (options.checkpoint_interval != 0) {
    sim_opts.checkpoint_sink = [&](Cycle cycle, std::string&& blob) {
      std::string file = std::move(blob);
      if (verifier != nullptr) {
        ByteWriter w;
        verifier->save(w);
        file += frame_checkpoint(fp, cycle, w.take());
      }
      write_checkpoint_file(options.checkpoint_path, file);
      ++report.checkpoints_written;
      track_rss(report);
      if (options.rss_limit_kib != 0 &&
          report.rss_kib > options.rss_limit_kib) {
        throw Error("soak RSS ceiling exceeded: VmRSS " +
                    std::to_string(report.rss_kib) + " KiB > limit " +
                    std::to_string(options.rss_limit_kib) +
                    " KiB at cycle " + std::to_string(cycle));
      }
    };
  }

  auto source = open_traffic(options.trace_path, options.synthetic);
  Mp5Simulator sim(program, sim_opts);

  if (options.resume) {
    const std::string file = read_checkpoint_file(options.checkpoint_path);
    const std::size_t sim_len = framed_size(file);
    const std::string_view sim_frame(file.data(), sim_len);
    const std::string_view rest(file.data() + sim_len, file.size() - sim_len);
    const CheckpointInfo sim_info = parse_checkpoint(sim_frame);
    if (verifier != nullptr) {
      if (rest.empty()) {
        throw Error("soak checkpoint has no verifier section (the "
                    "checkpointing run had verification disabled)");
      }
      if (framed_size(rest) != rest.size()) {
        throw Error("soak checkpoint corrupted (trailing bytes after the "
                    "verifier frame)");
      }
      const CheckpointInfo vinfo = parse_checkpoint(rest);
      if (vinfo.fingerprint != fp) {
        throw Error("soak checkpoint was taken under a different "
                    "configuration (verifier fingerprint mismatch)");
      }
      if (vinfo.cycle != sim_info.cycle) {
        throw Error("soak checkpoint corrupted: simulator and verifier "
                    "frames disagree on the checkpoint cycle");
      }
      ByteReader r(vinfo.payload);
      verifier->load(r);
      r.expect_done();
    }
    report.resumed = true;
    report.resumed_from_cycle = sim_info.cycle;
    report.result = sim.resume(*source, sim_frame);
  } else {
    report.result = sim.run(*source);
  }

  if (verifier != nullptr) {
    report.verify_ran = true;
    report.equivalence =
        verifier->finish(report.result.offered, report.result.final_registers);
    report.truncated = verifier->truncated();
    report.verified_packets = verifier->verified();
    report.verify_window_peak = verifier->window_peak();
    report.verified = !report.truncated && report.equivalence.packets_equal &&
                      report.equivalence.registers_equal;
  }
  track_rss(report);
  return report;
}

} // namespace mp5::soak
