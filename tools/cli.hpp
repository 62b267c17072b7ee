// The command-line front end every mp5 tool is built on: one argument
// reader whose numeric flags parse strictly into their destination type,
// one program-file reader, the shared spec parsers and one main()
// wrapper. Nothing here depends on which tool calls it; checks that
// belong to one tool stay in that tool.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/parse_number.hpp"
#include "mp5/faults.hpp"

namespace mp5::cli {

/// What a T looks like on the command line, for error messages:
/// "an unsigned 32-bit integer", "a signed 64-bit integer", "a finite
/// real number".
template <typename T>
std::string number_kind() {
  if constexpr (std::is_floating_point_v<T>) {
    return "a finite real number";
  } else {
    return std::string(std::is_signed_v<T> ? "a signed " : "an unsigned ") +
           std::to_string(8 * sizeof(T)) + "-bit integer";
  }
}

/// `text` parsed whole as a T (see parse_number); otherwise a one-line
/// ConfigError naming `flag` and the text.
template <typename T>
T parse_flag_value(std::string_view flag, std::string_view text) {
  T out{};
  if (!parse_number(text, out)) {
    throw ConfigError(std::string(flag) + ": expected " + number_kind<T>() +
                      ", got '" + std::string(text) + "'");
  }
  return out;
}

/// Walks argv front to back. A tool's loop matches arg() against its
/// flags and takes each flag's value with value(), read() or
/// read_positive(); an argument no flag matches goes to program() or
/// unknown().
class ArgReader {
public:
  ArgReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Step to the next argument; false once they are used up.
  bool next();
  const std::string& arg() const { return arg_; }

  /// The current flag's value; ConfigError if the command line ends first.
  std::string value();

  /// The current flag's value parsed whole into `out`'s type.
  template <typename T>
  void read(T& out) {
    out = parse_flag_value<T>(arg_, value());
  }

  /// read(), and the value must be > 0.
  template <typename T>
  void read_positive(T& out) {
    const std::string text = value();
    out = parse_flag_value<T>(arg_, text);
    if (!(out > T{})) {
      throw ConfigError(arg_ + ": expected a value > 0, got '" + text + "'");
    }
  }

  /// The current argument is a program file: returns its text. An
  /// argument that starts with '-' is an unknown option instead.
  std::string program() const;

  /// Reject the current argument as an unknown option.
  [[noreturn]] void unknown() const;

private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
};

/// The whole text of the file at `path`; ConfigError if it cannot be read.
std::string read_file(const std::string& path);

/// The non-empty items of a comma-separated list.
std::vector<std::string> split_csv(const std::string& list);

/// A --fail-pipeline spec: P@CYCLE or P@CYCLE:RECOVER.
PipelineFault parse_fail_spec(const std::string& spec);

/// main() of a tool: runs `body` and turns any exception into one
/// "<tool>: <message>" line on stderr and exit code 1.
int run_main(const char* tool, int (*body)(int, char**), int argc,
             char** argv);

} // namespace mp5::cli
