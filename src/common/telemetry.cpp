#include "common/telemetry.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <system_error>

#include "common/check.hpp"
#include "common/json_lite.hpp"

// The probes (Span, count, hist, AttachScope, snapshot, ...) are defined
// by the one recorder, common/recorder.cpp; this file holds the tree's
// queries and its export formats.

namespace odcfp::telemetry {

const Node* Node::find(
    std::initializer_list<std::string_view> path) const {
  const Node* n = this;
  for (std::string_view name : path) {
    auto it = n->children.find(std::string(name));
    if (it == n->children.end()) return nullptr;
    n = &it->second;
  }
  return n;
}

std::int64_t Node::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

const metrics::HistData* Node::hist(std::string_view name) const {
  auto it = hists.find(std::string(name));
  return it == hists.end() ? nullptr : &it->second;
}

metrics::HistData Node::hist_total(std::string_view name) const {
  metrics::HistData total;
  if (const metrics::HistData* h = hist(name)) total.merge(*h);
  for (const auto& [child_name, child] : children) {
    total.merge(child.hist_total(name));
  }
  return total;
}

// ---- export ----

namespace {

void write_hist_json(std::ostream& os, const metrics::HistData& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"buckets\":[";
  bool first = true;
  for (std::uint64_t b : h.buckets) {
    if (!first) os << ',';
    first = false;
    os << b;
  }
  os << "]}";
}

void write_node_json(std::ostream& os, const Node& node) {
  os << "{\"count\":" << node.count << ",\"total_ns\":" << node.total_ns
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : node.counters) {
    if (!first) os << ',';
    first = false;
    os << jsonlite::quote(name) << ':' << v;
  }
  os << '}';
  // Emitted only when present, so trees without histograms serialize
  // byte-identically to the pre-histogram format.
  if (!node.hists.empty()) {
    os << ",\"hists\":{";
    first = true;
    for (const auto& [name, h] : node.hists) {
      if (!first) os << ',';
      first = false;
      os << jsonlite::quote(name) << ':';
      write_hist_json(os, h);
    }
    os << '}';
  }
  os << ",\"children\":{";
  first = true;
  for (const auto& [name, child] : node.children) {
    if (!first) os << ',';
    first = false;
    os << jsonlite::quote(name) << ':';
    write_node_json(os, child);
  }
  os << "}}";
}

void dump_node(std::ostream& os, const Node& node, const std::string& name,
               int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  os << pad << (name.empty() ? "(root)" : name);
  if (node.count > 0) {
    const double ms = static_cast<double>(node.total_ns) / 1e6;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  x%llu  %.3f ms",
                  static_cast<unsigned long long>(node.count), ms);
    os << buf;
    if (node.count > 1) {
      std::snprintf(buf, sizeof(buf), "  (%.3f ms/ea)",
                    ms / static_cast<double>(node.count));
      os << buf;
    }
  }
  os << '\n';
  for (const auto& [cname, v] : node.counters) {
    os << pad << "  . " << cname << " = " << v << '\n';
  }
  for (const auto& [hname, h] : node.hists) {
    const metrics::HistSummary q = metrics::summarize(h);
    os << pad << "  ~ " << hname << "  n=" << h.count
       << "  p50<=" << q.p50 << "  p90<=" << q.p90 << "  p99<=" << q.p99
       << '\n';
  }
  for (const auto& [cname, child] : node.children) {
    dump_node(os, child, cname, indent + 1);
  }
}

}  // namespace

void dump_tree(std::ostream& os, const Node& root) {
  dump_node(os, root, "", 0);
}

std::string to_json(const Node& root) {
  std::ostringstream os;
  write_node_json(os, root);
  return os.str();
}

// ---- parsing (round-trip of to_json's output) ----

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw CheckError("telemetry JSON parse error: " + what);
}

const jsonlite::Value& object(const jsonlite::Value& v,
                              const std::string& key) {
  if (!v.is_object()) parse_fail("'" + key + "' is not an object");
  return v;
}

/// The exact integer `v` spells; anything else, or a value outside Int,
/// is a parse error.
template <class Int>
Int integer(const jsonlite::Value& v, const std::string& key) {
  Int out = 0;
  const char* end = v.raw.data() + v.raw.size();
  const auto [ptr, ec] = std::from_chars(v.raw.data(), end, out);
  if (!v.is_number() || ec != std::errc{} || ptr != end) {
    parse_fail("'" + key + "' is not an integer in range");
  }
  return out;
}

metrics::HistData hist_from(const jsonlite::Value& v,
                            const std::string& name) {
  metrics::HistData h;
  for (const auto& [key, field] : object(v, name).members) {
    if (key == "count") {
      h.count = integer<std::uint64_t>(field, key);
    } else if (key == "sum") {
      h.sum = integer<std::uint64_t>(field, key);
    } else if (key == "buckets") {
      if (!field.is_array()) parse_fail("'buckets' is not an array");
      for (const jsonlite::Value& b : field.items) {
        h.buckets.push_back(integer<std::uint64_t>(b, key));
      }
    } else {
      parse_fail("unknown hist key '" + key + "'");
    }
  }
  return h;
}

Node node_from(const jsonlite::Value& v, const std::string& name) {
  Node node;
  for (const auto& [key, field] : object(v, name).members) {
    if (key == "count") {
      node.count = integer<std::uint64_t>(field, key);
    } else if (key == "total_ns") {
      node.total_ns = integer<std::uint64_t>(field, key);
    } else if (key == "counters") {
      for (const auto& [counter, c] : object(field, key).members) {
        node.counters[counter] = integer<std::int64_t>(c, counter);
      }
    } else if (key == "hists") {
      for (const auto& [hist, h] : object(field, key).members) {
        node.hists[hist] = hist_from(h, hist);
      }
    } else if (key == "children") {
      for (const auto& [child, c] : object(field, key).members) {
        node.children[child] = node_from(c, child);
      }
    } else {
      parse_fail("unknown key '" + key + "'");
    }
  }
  return node;
}

}  // namespace

Node parse_json(std::string_view json) {
  jsonlite::Value doc;
  try {
    doc = jsonlite::parse(json);
  } catch (const std::runtime_error& e) {
    parse_fail(e.what());
  }
  return node_from(doc, "/");
}

}  // namespace odcfp::telemetry
