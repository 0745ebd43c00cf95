// Pins the exact bytes the netlist writers emit, as CRC-32 digests.
//
// Gate ids break ties in Netlist::topo_order(), and the writers emit gates
// in that order, so these digests also pin the order in which
// read_verilog_string creates gates: the reordered-text cases parse each
// circuit with its instance lines reversed or shuffled and write the result
// back. A digest that changes means shipped editions changed bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/rng.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/codewords.hpp"
#include "fingerprint/location.hpp"
#include "io/blif.hpp"
#include "io/verilog.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

namespace odcfp {
namespace {

using Digests = std::map<std::string, std::uint32_t>;

const char* const kCircuits[] = {"c17", "c432", "c880", "c1908",
                                 "i8",  "c3540", "des"};

// Expected digests; a missing or wrong entry fails with the line to paste.
const Digests& pinned() {
  static const Digests d = {
      {"blif/c17", 0xff87b95fu},
      {"blif/c1908", 0x099b6429u},
      {"blif/c3540", 0x1987c75eu},
      {"blif/c432", 0xd25c3349u},
      {"blif/c880", 0x120bded4u},
      {"blif/des", 0x737c0336u},
      {"blif/i8", 0x1ff4e595u},
      {"verilog/c17", 0xf95275abu},
      {"verilog/c1908", 0xaf6756c3u},
      {"verilog/c3540", 0x5728573bu},
      {"verilog/c432", 0xe94c4767u},
      {"verilog/c880", 0xed5e7543u},
      {"verilog/des", 0x25c9a234u},
      {"verilog/i8", 0xb37f547cu},
      {"edition/c880/0/blif", 0x439d1b7du},
      {"edition/c880/0/verilog", 0x6ee8a2a8u},
      {"edition/c880/1/blif", 0x6eaff4d8u},
      {"edition/c880/1/verilog", 0x31081a70u},
      {"edition/c880/2/blif", 0xc8ba25d4u},
      {"edition/c880/2/verilog", 0xab5e5dd4u},
      {"edition/c880/3/blif", 0x89e90e37u},
      {"edition/c880/3/verilog", 0x4edffe6cu},
      {"hand/blif", 0x0ff0c21eu},
      {"hand/reread/blif", 0x0ff0c21eu},
      {"hand/verilog", 0x77d7c487u},
      {"reversed/c17", 0xdc3f3c6bu},
      {"reversed/c1908", 0x794c26dau},
      {"reversed/c3540", 0xb22fd2ffu},
      {"reversed/c432", 0xb6df8307u},
      {"reversed/c880", 0x1ff954cdu},
      {"reversed/des", 0x8fe56a4du},
      {"reversed/i8", 0x89e21e1du},
      {"shuffled/c17/1", 0xed4c23d2u},
      {"shuffled/c17/10", 0xdcba2346u},
      {"shuffled/c17/11", 0x8bc69c10u},
      {"shuffled/c17/12", 0xba309c84u},
      {"shuffled/c17/13", 0x8b43833du},
      {"shuffled/c17/14", 0xdcba2346u},
      {"shuffled/c17/15", 0xed4c23d2u},
      {"shuffled/c17/16", 0xdc3f3c6bu},
      {"shuffled/c17/17", 0xba309c84u},
      {"shuffled/c17/18", 0x8bc69c10u},
      {"shuffled/c17/2", 0xba309c84u},
      {"shuffled/c17/3", 0xbab583a9u},
      {"shuffled/c17/4", 0xdc3f3c6bu},
      {"shuffled/c17/5", 0xdcba2346u},
      {"shuffled/c17/6", 0xed4c23d2u},
      {"shuffled/c17/7", 0xa0fa906au},
      {"shuffled/c17/8", 0xed4c23d2u},
      {"shuffled/c17/9", 0xf276b736u},
      {"shuffled/c1908/1", 0x9eb08d91u},
      {"shuffled/c1908/10", 0x9b61d80au},
      {"shuffled/c1908/11", 0xf4b29f38u},
      {"shuffled/c1908/12", 0x75b4687fu},
      {"shuffled/c1908/13", 0x45e67075u},
      {"shuffled/c1908/14", 0x954a3c99u},
      {"shuffled/c1908/15", 0x43ef47beu},
      {"shuffled/c1908/16", 0x15a8ad5fu},
      {"shuffled/c1908/17", 0x23ebe26fu},
      {"shuffled/c1908/18", 0x527c1e8cu},
      {"shuffled/c1908/2", 0x72add2c0u},
      {"shuffled/c1908/3", 0x05b9b4d9u},
      {"shuffled/c1908/4", 0x7c405efau},
      {"shuffled/c1908/5", 0x3883c704u},
      {"shuffled/c1908/6", 0x278491c0u},
      {"shuffled/c1908/7", 0x0cc2e038u},
      {"shuffled/c1908/8", 0xa65704abu},
      {"shuffled/c1908/9", 0x3f0f17c1u},
      {"shuffled/c3540/1", 0x22721e69u},
      {"shuffled/c3540/10", 0x3269bb40u},
      {"shuffled/c3540/11", 0x1b9b1f53u},
      {"shuffled/c3540/12", 0x5571e01au},
      {"shuffled/c3540/13", 0x54e9db04u},
      {"shuffled/c3540/14", 0xa9e97d93u},
      {"shuffled/c3540/15", 0xe40ec282u},
      {"shuffled/c3540/16", 0xe6861934u},
      {"shuffled/c3540/17", 0xf7e64ae1u},
      {"shuffled/c3540/18", 0xc56a4388u},
      {"shuffled/c3540/2", 0xc7bd031cu},
      {"shuffled/c3540/3", 0x6e8c91c8u},
      {"shuffled/c3540/4", 0x976581c6u},
      {"shuffled/c3540/5", 0x678ecd2bu},
      {"shuffled/c3540/6", 0x5c0504acu},
      {"shuffled/c3540/7", 0x3d8720fbu},
      {"shuffled/c3540/8", 0x87f9dbc9u},
      {"shuffled/c3540/9", 0x9920880du},
      {"shuffled/c432/1", 0x78d09f8au},
      {"shuffled/c432/10", 0x33ab9586u},
      {"shuffled/c432/11", 0xa9dc2105u},
      {"shuffled/c432/12", 0xe64e699eu},
      {"shuffled/c432/13", 0x18699705u},
      {"shuffled/c432/14", 0x0ef02d58u},
      {"shuffled/c432/15", 0x96c6ad0du},
      {"shuffled/c432/16", 0x2757f360u},
      {"shuffled/c432/17", 0xf481dca1u},
      {"shuffled/c432/18", 0xf8b34269u},
      {"shuffled/c432/2", 0xc6869f45u},
      {"shuffled/c432/3", 0x3a1b2575u},
      {"shuffled/c432/4", 0xf30834f2u},
      {"shuffled/c432/5", 0xd661112cu},
      {"shuffled/c432/6", 0x32f85646u},
      {"shuffled/c432/7", 0xc815b319u},
      {"shuffled/c432/8", 0xee80a65au},
      {"shuffled/c432/9", 0x1e44158cu},
      {"shuffled/c880/1", 0x73743e65u},
      {"shuffled/c880/10", 0x06cdc9b4u},
      {"shuffled/c880/11", 0x468aa472u},
      {"shuffled/c880/12", 0x7a730ff3u},
      {"shuffled/c880/13", 0x54cdd12eu},
      {"shuffled/c880/14", 0xa9d9ccb6u},
      {"shuffled/c880/15", 0x3ee89c53u},
      {"shuffled/c880/16", 0xa8c486ffu},
      {"shuffled/c880/17", 0xd6b6b3a6u},
      {"shuffled/c880/18", 0xa6609a4fu},
      {"shuffled/c880/2", 0xa51019d8u},
      {"shuffled/c880/3", 0x69071c70u},
      {"shuffled/c880/4", 0x0341e9b4u},
      {"shuffled/c880/5", 0xe912ab4fu},
      {"shuffled/c880/6", 0x658e817bu},
      {"shuffled/c880/7", 0xf9a9b682u},
      {"shuffled/c880/8", 0x412023e4u},
      {"shuffled/c880/9", 0x6977b918u},
      {"shuffled/des/1", 0x72cfd7ceu},
      {"shuffled/des/10", 0x89e1c90du},
      {"shuffled/des/11", 0xe5762319u},
      {"shuffled/des/12", 0x4422fb6bu},
      {"shuffled/des/13", 0x8479c8a5u},
      {"shuffled/des/14", 0xbc7dc986u},
      {"shuffled/des/15", 0x6d971546u},
      {"shuffled/des/16", 0x05d8477cu},
      {"shuffled/des/17", 0x72f11372u},
      {"shuffled/des/18", 0xafb50856u},
      {"shuffled/des/2", 0x4dd14f13u},
      {"shuffled/des/3", 0x79cc98e3u},
      {"shuffled/des/4", 0x62554d35u},
      {"shuffled/des/5", 0x2a39ab4au},
      {"shuffled/des/6", 0xe6e9e339u},
      {"shuffled/des/7", 0x54b7c92eu},
      {"shuffled/des/8", 0x64503281u},
      {"shuffled/des/9", 0x56467002u},
      {"shuffled/i8/1", 0x076fc372u},
      {"shuffled/i8/10", 0xfee5a2e9u},
      {"shuffled/i8/11", 0x2f3dbff3u},
      {"shuffled/i8/12", 0xc632fb4bu},
      {"shuffled/i8/13", 0x87ed2c5eu},
      {"shuffled/i8/14", 0x70b43aefu},
      {"shuffled/i8/15", 0xd371a032u},
      {"shuffled/i8/16", 0xe45eee0bu},
      {"shuffled/i8/17", 0x00e4560fu},
      {"shuffled/i8/18", 0x6ddaaac4u},
      {"shuffled/i8/2", 0xd2ba4c4au},
      {"shuffled/i8/3", 0x4b7ab33bu},
      {"shuffled/i8/4", 0x560dae2cu},
      {"shuffled/i8/5", 0x20e5630bu},
      {"shuffled/i8/6", 0x693a1936u},
      {"shuffled/i8/7", 0xad52b1d9u},
      {"shuffled/i8/8", 0x4d8c01aau},
      {"shuffled/i8/9", 0xbf169b10u},
  };
  return d;
}

void expect_pinned(const Digests& got) {
  for (const auto& [key, crc] : got) {
    const auto it = pinned().find(key);
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%08xu},", key.c_str(),
                  static_cast<unsigned>(crc));
    if (it == pinned().end()) {
      ADD_FAILURE() << "no pinned digest: " << line;
    } else {
      EXPECT_EQ(it->second, crc) << "digest changed: " << line;
    }
  }
}

std::uint32_t crc(const std::string& text) { return atomic_io::crc32(text); }

/// Splits Verilog text into lines (each keeps its '\n').
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

bool is_instance_line(std::string_view line) {
  if (line.substr(0, 2) != "  ") return false;
  for (std::string_view kw : {"input ", "output ", "wire ", "assign "}) {
    if (line.substr(2, kw.size()) == kw) return false;
  }
  return true;
}

/// `text` with its instance lines permuted by `permute`; every other line
/// keeps its place.
template <typename Permute>
std::string reorder_instances(const std::string& text, Permute permute) {
  std::vector<std::string> lines = lines_of(text);
  std::vector<std::size_t> slots;
  std::vector<std::string> instances;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (is_instance_line(lines[i])) {
      slots.push_back(i);
      instances.push_back(lines[i]);
    }
  }
  permute(instances);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    lines[slots[k]] = instances[k];
  }
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

TEST(IoDigest, BenchmarkCircuitsWriteThePinnedBytes) {
  Digests got;
  for (const char* name : kCircuits) {
    const Netlist nl = make_benchmark(name);
    got[std::string("verilog/") + name] = crc(to_verilog_string(nl));
    got[std::string("blif/") + name] = crc(to_blif_string(nl));
  }
  expect_pinned(got);
}

TEST(IoDigest, EditionsWriteThePinnedBytes) {
  const Netlist golden = make_benchmark("c880");
  const std::vector<FingerprintLocation> locs = find_locations(golden);
  const Codebook book(locs, 4, 23);
  BatchOptions opt;
  opt.seed = 5;
  const BatchResult result = batch_fingerprint(
      golden, book, StaticTimingAnalyzer{}, PowerAnalyzer{}, opt);
  ASSERT_EQ(result.editions.size(), 4u);
  Digests got;
  for (const BuyerEdition& e : result.editions) {
    const std::string key = "edition/c880/" + std::to_string(e.buyer);
    got[key + "/verilog"] = crc(to_verilog_string(e.netlist));
    got[key + "/blif"] = crc(to_blif_string(e.netlist));
  }
  expect_pinned(got);
}

TEST(IoDigest, HandBuiltNetlistWritesThePinnedBytes) {
  const CellLibrary& lib = default_cell_library();
  Netlist nl(&lib, "hand.built");
  const NetId a = nl.add_input("a[0]");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("1st");
  const GateId zero = nl.add_gate(lib.find("CONST0"), {}, "k0", "zero");
  const GateId one = nl.add_gate(lib.find("CONST1"), {}, "k1", "one");
  const GateId both = nl.add_gate_kind(CellKind::kNand, {a, a}, "g$both");
  const GateId mux = nl.add_gate(
      lib.find("MUX2"),
      {nl.gate(zero).output, nl.gate(one).output, c}, "u.mux", "m");
  const GateId x = nl.add_gate_kind(
      CellKind::kXor, {nl.gate(both).output, b}, "x1");
  const GateId gone = nl.add_gate_kind(CellKind::kInv, {b}, "gone");
  nl.remove_gate(gone);
  const GateId y = nl.add_gate_kind(
      CellKind::kAnd, {nl.gate(x).output, nl.gate(mux).output}, "y1");
  nl.add_output(nl.gate(y).output, "f_alias");
  nl.add_output(nl.gate(x).output, "p1");
  nl.add_output(nl.gate(x).output, "p2");
  nl.add_output(nl.gate(mux).output);

  Digests got;
  got["hand/verilog"] = crc(to_verilog_string(nl));
  got["hand/blif"] = crc(to_blif_string(nl));
  got["hand/reread/blif"] =
      crc(to_blif_string(read_verilog_string(to_verilog_string(nl), lib)));
  expect_pinned(got);
}

TEST(IoDigest, ReorderedInstanceLinesReadToThePinnedBytes) {
  const CellLibrary& lib = default_cell_library();
  Digests got;
  for (const char* name : kCircuits) {
    const std::string text = to_verilog_string(make_benchmark(name));
    const std::string reversed =
        reorder_instances(text, [](std::vector<std::string>& v) {
          std::reverse(v.begin(), v.end());
        });
    got[std::string("reversed/") + name] =
        crc(to_blif_string(read_verilog_string(reversed, lib)));
    for (std::uint64_t seed = 1; seed <= 18; ++seed) {
      const std::string shuffled =
          reorder_instances(text, [seed](std::vector<std::string>& v) {
            Rng rng(seed);
            rng.shuffle(v);
          });
      got["shuffled/" + std::string(name) + "/" + std::to_string(seed)] =
          crc(to_blif_string(read_verilog_string(shuffled, lib)));
    }
  }
  expect_pinned(got);
}

}  // namespace
}  // namespace odcfp
