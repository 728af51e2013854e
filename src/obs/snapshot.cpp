#include "obs/snapshot.h"

#include <cstdio>

namespace cny::obs {

namespace {

/// Minimal JSON string escape for metric names (which are identifiers by
/// convention, but a hostile name must still produce a parseable line).
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string snapshot_jsonl_line(const TimedSnapshot& snapshot) {
  std::string out = "{\"wall_ms\":" + std::to_string(snapshot.wall_ms) +
                    ",\"mono_us\":" + std::to_string(snapshot.mono_us) +
                    ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.metrics.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.metrics.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\":" + std::to_string(value);
  }
  out += "}}";
  return out;
}

}  // namespace cny::obs
