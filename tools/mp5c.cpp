// mp5c — the MP5 compiler explorer.
//
// Compiles a Domino program and reports every stage of the pipeline:
// the PVSM (stages and atoms), the machine fit, and the MP5 transform
// (address-resolution logic, per-access resolvability, sharding plan).
//
// Usage:
//   mp5c <file.dom>            compile a file
//   mp5c -                     compile stdin
//   mp5c --builtin <name>      compile a bundled program
//   mp5c --list                list bundled programs
// Options:
//   --stages N     machine stage budget (default 16)
//   --flow-order f1,f2   append the §3.4 per-flow ordering stage
#include <iostream>
#include <sstream>
#include <string>

#include "apps/programs.hpp"
#include "banzai/atom_templates.hpp"
#include "banzai/machine.hpp"
#include "cli.hpp"
#include "domino/compiler.hpp"
#include "mp5/transform.hpp"

namespace {

using namespace mp5;

int run(int argc, char** argv) {
  std::string source;
  banzai::MachineSpec machine;
  TransformOptions topts;
  bool have_source = false;

  cli::ArgReader in(argc, argv);
  while (in.next()) {
    const std::string& arg = in.arg();
    if (arg == "--list") {
      for (const auto& name : apps::builtin_names()) std::cout << name << "\n";
      return 0;
    } else if (arg == "--builtin") {
      source = apps::builtin(in.value()).source;
      have_source = true;
    } else if (arg == "--stages") {
      in.read(machine.max_stages);
    } else if (arg == "--flow-order") {
      topts.add_flow_order_stage = true;
      topts.flow_fields = cli::split_csv(in.value());
    } else if (arg == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      source = ss.str();
      have_source = true;
    } else {
      source = in.program();
      have_source = true;
    }
  }
  if (!have_source) {
    std::cerr << "usage: mp5c <file.dom> | - | --builtin <name> | --list\n";
    return 2;
  }

  const auto compiled = domino::compile(source, machine, /*reserve_stages=*/1);
  const Mp5Program program = transform(compiled.pvsm, topts);

  std::cout << "== PVSM (" << program.pvsm.stages.size() << " stages, "
            << (compiled.serialized ? "serialized" : "unserialized")
            << " schedule) ==\n"
            << ir::to_string(program.pvsm);

  std::cout << "\n== MP5 transform ==\n";
  std::cout << "address-resolution instructions hoisted to arrival: "
            << program.resolver.size() << "\n";
  for (const auto& instr : program.resolver) {
    std::cout << "  " << ir::to_string(instr, program.pvsm) << "\n";
  }
  std::cout << "\nstateful accesses (" << program.accesses.size() << "):\n";
  for (const auto& acc : program.accesses) {
    std::cout << "  stage " << acc.stage << "  reg "
              << program.pvsm.registers[acc.reg].name << "  index "
              << (acc.index_resolvable ? "resolved at arrival"
                                       : "stateful -> array pinned")
              << "  predicate ";
    if (acc.guard == ir::kNoSlot) {
      std::cout << "always";
    } else if (acc.guard_resolvable) {
      std::cout << "resolved at arrival";
    } else {
      std::cout << "conservative (known after stage "
                << acc.guard_known_after_stage << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\natom templates (Banzai circuit classes):\n";
  for (const auto& stage : program.pvsm.stages) {
    for (const auto& atom : stage.atoms) {
      if (!atom.stateful() || atom.body.empty()) continue;
      std::cout << "  " << program.pvsm.registers[atom.reg].name << ": "
                << banzai::to_string(banzai::classify_atom(atom)) << "\n";
    }
  }

  std::cout << "\nsharding plan:\n";
  for (std::size_t r = 0; r < program.pvsm.registers.size(); ++r) {
    std::cout << "  " << program.pvsm.registers[r].name << "["
              << program.pvsm.registers[r].size << "]: "
              << (program.shardable[r] ? "dynamically sharded (D2)"
                                       : "pinned to one pipeline")
              << "\n";
  }
  const auto fit = banzai::usage(program.pvsm);
  std::cout << "\nmachine fit: " << fit.stages << "/" << machine.max_stages
            << " stages, max " << fit.max_atoms_in_stage
            << " atoms/stage, max " << fit.max_stateful_in_stage
            << " stateful/stage, deepest atom " << fit.max_atom_ops
            << " ops, richest template "
            << banzai::to_string(fit.max_template) << "\n";

  std::cout << "\ntotal transformed stages (incl. AR): " << program.num_stages
            << ", conservative accesses: " << program.conservative_accesses()
            << ", pinned arrays: " << program.pinned_registers() << "\n";
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  return mp5::cli::run_main("mp5c", run, argc, argv);
}
