#include "trace/trace_io.hpp"

#include <charconv>
#include <fstream>

#include "common/error.hpp"
#include "common/parse_number.hpp"
#include "trace/trace_source.hpp"

namespace mp5 {

void save_trace_csv(const Trace& trace, std::ostream& os) {
  os << "# arrival_time,port,size_bytes,flow,fields...\n";
  char time[32];
  for (const auto& item : trace) {
    const auto written =
        std::to_chars(time, time + sizeof time, item.arrival_time).ptr;
    os.write(time, written - time);
    os << ',' << item.port << ',' << item.size_bytes << ',' << item.flow;
    for (const Value v : item.fields) os << ',' << v;
    os << '\n';
  }
}

bool parse_trace_csv_line(std::string_view line, std::size_t lineno,
                          TraceItem& item) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty() || line[0] == '#') return false;
  auto fail = [lineno](const std::string& why) -> Error {
    return Error("trace csv line " + std::to_string(lineno) + ": " + why);
  };
  item = TraceItem{};
  std::size_t column = 0;
  while (true) {
    const std::size_t comma = line.find(',');
    const std::string_view cell = line.substr(0, comma);
    bool ok = false;
    switch (column) {
      case 0: ok = parse_number(cell, item.arrival_time); break;
      case 1: ok = parse_number(cell, item.port); break;
      case 2: ok = parse_number(cell, item.size_bytes); break;
      case 3: ok = parse_number(cell, item.flow); break;
      default: ok = parse_number(cell, item.fields.emplace_back()); break;
    }
    if (!ok) {
      throw fail("malformed number '" + std::string(cell) + "' in column " +
                 std::to_string(column + 1));
    }
    ++column;
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  if (column < 4) throw fail("expected at least 4 columns");
  return true;
}

void save_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw Error("cannot write trace file '" + path + "'");
  save_trace_csv(trace, os);
}

Trace load_trace_file(const std::string& path) {
  CsvFileTraceSource source(path);
  return materialize(source);
}

} // namespace mp5
