#include "obs/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hbsp::obs {
namespace {

/// Indentation unit inside the snapshot object.
constexpr int kStep = 2;

std::string pad(int spaces) {
  return std::string(static_cast<std::size_t>(spaces), ' ');
}

/// Renders {"name": value, ...} for one metric section, one entry per line.
template <typename Range, typename Format>
void append_object(std::string& out, const Range& entries, int indent,
                   Format&& format) {
  if (entries.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  bool first = true;
  for (const auto& entry : entries) {
    if (!first) out += ",\n";
    first = false;
    out += pad(indent + kStep);
    out += '"';
    out += json_escape(entry.name);
    out += "\": ";
    out += format(entry);
  }
  out += '\n';
  out += pad(indent);
  out += '}';
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) return "null";
  return std::string{buf, end};
}

util::Table metrics_table(const MetricsSnapshot& snapshot,
                          const std::string& title) {
  util::Table table{title};
  table.set_header({"metric", "kind", "value", "mean", "min", "max"});
  for (const CounterValue& c : snapshot.counters) {
    table.add_row({c.name, "counter",
                   std::to_string(c.value), "", "", ""});
  }
  for (const GaugeValue& g : snapshot.gauges) {
    table.add_row({g.name, "gauge", util::Table::num(g.value, 6), "", "", ""});
  }
  for (const HistogramValue& h : snapshot.histograms) {
    table.add_row({h.name, "histogram", std::to_string(h.count),
                   util::Table::num(h.mean(), 6), util::Table::num(h.min, 6),
                   util::Table::num(h.max, 6)});
  }
  return table;
}

std::string snapshot_json(const MetricsSnapshot& snapshot, int indent) {
  std::string out = "{\n";
  out += pad(indent + kStep);
  out += "\"counters\": ";
  append_object(out, snapshot.counters, indent + kStep,
                [](const CounterValue& c) { return std::to_string(c.value); });
  out += ",\n";
  out += pad(indent + kStep);
  out += "\"gauges\": ";
  append_object(out, snapshot.gauges, indent + kStep,
                [](const GaugeValue& g) { return json_number(g.value); });
  out += ",\n";
  out += pad(indent + kStep);
  out += "\"histograms\": ";
  append_object(
      out, snapshot.histograms, indent + kStep,
      [indent](const HistogramValue& h) {
        std::string obj = "{\"count\": " + std::to_string(h.count) +
                          ", \"sum\": " + json_number(h.sum) +
                          ", \"min\": " + json_number(h.min) +
                          ", \"max\": " + json_number(h.max) +
                          ", \"mean\": " + json_number(h.mean()) +
                          ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (i > 0) obj += ", ";
          obj += std::to_string(h.buckets[i]);
        }
        obj += "]}";
        (void)indent;
        return obj;
      });
  out += '\n';
  out += pad(indent);
  out += '}';
  return out;
}

}  // namespace hbsp::obs
