#include "cli.hpp"

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

namespace mp5::cli {

bool ArgReader::next() {
  if (i_ + 1 >= argc_) return false;
  arg_ = argv_[++i_];
  return true;
}

std::string ArgReader::value() {
  if (i_ + 1 >= argc_) throw ConfigError(arg_ + " needs an argument");
  return argv_[++i_];
}

std::string ArgReader::program() const {
  if (!arg_.empty() && arg_[0] == '-') unknown();
  return read_file(arg_);
}

void ArgReader::unknown() const {
  throw ConfigError("unknown option '" + arg_ + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

PipelineFault parse_fail_spec(const std::string& spec) {
  constexpr std::string_view flag = "--fail-pipeline";
  const auto at = spec.find('@');
  if (at == std::string::npos || at == 0) {
    throw ConfigError("--fail-pipeline expects P@CYCLE[:RECOVER], got '" +
                      spec + "'");
  }
  const std::string_view text(spec);
  PipelineFault fault;
  fault.pipeline = parse_flag_value<PipelineId>(flag, text.substr(0, at));
  const auto colon = text.find(':', at + 1);
  fault.fail_at =
      parse_flag_value<Cycle>(flag, text.substr(at + 1, colon - at - 1));
  if (colon != std::string_view::npos) {
    fault.recover_at = parse_flag_value<Cycle>(flag, text.substr(colon + 1));
  }
  return fault;
}

int run_main(const char* tool, int (*body)(int, char**), int argc,
             char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 1;
  }
}

} // namespace mp5::cli
