#include "soak/soak_runner.hpp"

#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/simulator.hpp"
#include "soak/rolling_verify.hpp"

namespace mp5::soak {

void finish_verification(RollingVerifier& verifier, SoakReport& report) {
  report.verify_ran = true;
  report.equivalence = verifier.finish(report.result);
  report.truncated = verifier.truncated();
  report.verified_packets = verifier.verified();
  report.verify_window_peak = verifier.window_peak();
  report.verified = !report.truncated && report.equivalence.packets_equal &&
                    report.equivalence.registers_equal;
}

SoakReport run_soak(const Mp5Program& program, const SoakOptions& options) {
  if (options.checkpoint_interval != 0 && options.checkpoint_path.empty()) {
    throw ConfigError("soak: checkpoint_interval requires checkpoint_path");
  }

  SoakReport report;
  SimOptions sim_opts = options.sim;
  sim_opts.checkpoint_interval = options.checkpoint_interval;

  std::unique_ptr<RollingVerifier> verifier;
  if (options.verify) {
    verifier =
        std::make_unique<RollingVerifier>(program.pvsm, options.traffic());
    verifier->attach(sim_opts);
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
    };
  }

  auto source = options.traffic();
  Mp5Simulator sim(program, sim_opts);

  if (!options.resume.empty()) {
    const std::string file = read_checkpoint_file(options.resume);
    const std::size_t sim_len = framed_size(file);
    const std::string_view sim_frame(file.data(), sim_len);
    const std::string_view rest(file.data() + sim_len, file.size() - sim_len);
    const CheckpointInfo sim_info = parse_checkpoint(sim_frame);
    if (verifier != nullptr) {
      if (rest.empty()) {
        throw Error("soak checkpoint has no verifier frame (the "
                    "checkpointing run did not verify; resume it without "
                    "verification)");
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

  if (verifier != nullptr) finish_verification(*verifier, report);
  return report;
}

} // namespace mp5::soak
