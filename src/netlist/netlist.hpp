// Gate-level netlist IR.
//
// A Netlist is a DAG of cell instances ("gates") connected by nets. Primary
// inputs are driverless nets; primary outputs are named ports referencing
// nets. The structure supports the local rewrites the fingerprint embedder
// performs (widening a gate, appending a gate on a net, repointing a pin)
// with full fanout bookkeeping, plus the global queries (topological order,
// logic depth, fanout-free cones) used by the location finder, STA, and
// simulation.
//
// Gates and nets are referenced by dense integer ids. Removing a gate
// leaves a tombstone so ids stay stable during a fingerprinting session;
// compact() squeezes tombstones out and returns the id remapping.
//
// Storage. Gates and nets live in two arrays indexed by id. A gate's
// fanins and a net's fanouts are PinLists (netlist/pin_list.hpp) that hold
// kInlinePins = 4 entries in place: every default-library cell has at
// most 4 inputs, and 91-99% of the nets of the benchmark circuits have at
// most 4 fanouts, so only the rest spill to the heap. The net, gate and
// port names are found through NameTables (netlist/name_table.hpp),
// open-addressed tables of ids that compare against the names the nets,
// gates and ports hold. Copying a netlist therefore copies a handful of
// arrays plus one buffer per spilled pin list (and per name too long for
// the string's inline buffer), and editing one does array work.
//
// Invalidation. Adding a gate or net may grow its array, which moves every
// Gate or Net and, with them, their inline pins: references to a Gate or
// Net, and iterators or pointers into its fanins or fanouts, dangle. A
// loop over a pin list that adds gates or nets must iterate a copy.
//
// Sharing. No const method changes anything, not even a cache: threads
// may copy and query one shared const netlist at the same time.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "library/cell_library.hpp"
#include "netlist/name_table.hpp"
#include "netlist/pin_list.hpp"

namespace odcfp {

using GateId = std::uint32_t;
using NetId = std::uint32_t;
inline constexpr GateId kInvalidGate = ~GateId{0};
inline constexpr NetId kInvalidNet = ~NetId{0};
/// What Netlist::find_output returns for an unknown port name.
inline constexpr std::uint32_t kInvalidPort = ~std::uint32_t{0};

/// One sink pin of a net: input pin `pin` of gate `gate`.
struct FanoutRef {
  GateId gate;
  std::uint8_t pin;
  bool operator==(const FanoutRef&) const = default;
};

struct Gate {
  CellId cell = kInvalidCell;       ///< kInvalidCell marks a tombstone.
  NetId output = kInvalidNet;
  PinList<NetId> fanins;            ///< One net per input pin, pin order.
  std::string name;                 ///< Instance name (unique).

  bool is_dead() const { return cell == kInvalidCell; }
};

struct Net {
  std::string name;                 ///< Unique signal name.
  GateId driver = kInvalidGate;     ///< kInvalidGate: PI or dangling.
  bool is_pi = false;
  PinList<FanoutRef> fanouts;       ///< Gate input pins this net feeds.
  /// Output ports referencing this net (kept by add_output and
  /// repoint_output_ports, the only writers of the port list).
  std::uint32_t num_output_ports = 0;
};

/// A named primary-output port. Distinct ports may reference the same net.
struct OutputPort {
  std::string name;
  NetId net = kInvalidNet;
};

class Netlist {
 public:
  explicit Netlist(const CellLibrary* library = &default_cell_library(),
                   std::string name = "top");

  const CellLibrary& library() const { return *library_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction ----

  /// Reserves room for `gates` gates and `nets` nets, so adding gates up
  /// to those counts moves no Gate or Net. Called on an empty netlist
  /// before it is assigned a copy, the capacity survives the assignment.
  void reserve(std::size_t gates, std::size_t nets);

  /// Creates a primary input. Name must be unique (empty = auto).
  NetId add_input(const std::string& name = {});

  /// Declares net `net` as (the target of) a primary output port. The
  /// port name (empty = the net's) must be unused by every other port.
  void add_output(NetId net, const std::string& port_name = {});

  /// Creates a gate of cell `cell` with the given fanin nets and a fresh
  /// output net. Fanin count must match the cell arity. `fanins` may view
  /// another gate's pins.
  GateId add_gate(CellId cell, std::span<const NetId> fanins,
                  const std::string& gate_name = {},
                  const std::string& out_net_name = {});
  GateId add_gate(CellId cell, std::initializer_list<NetId> fanins,
                  const std::string& gate_name = {},
                  const std::string& out_net_name = {}) {
    return add_gate(cell, std::span<const NetId>(fanins), gate_name,
                    out_net_name);
  }

  /// Convenience: looks the cell up by kind+arity in the library.
  GateId add_gate_kind(CellKind kind, std::span<const NetId> fanins,
                       const std::string& gate_name = {});
  GateId add_gate_kind(CellKind kind, std::initializer_list<NetId> fanins,
                       const std::string& gate_name = {}) {
    return add_gate_kind(kind, std::span<const NetId>(fanins), gate_name);
  }

  // ---- local rewrites (used by the fingerprint embedder) ----

  /// Replaces the cell and fanins of an existing gate; the output net is
  /// kept, so all fanouts are preserved. Arity must match the new cell.
  /// `new_fanins` may view the gate's own pins.
  void rewire_gate(GateId gate, CellId new_cell,
                   std::span<const NetId> new_fanins);
  void rewire_gate(GateId gate, CellId new_cell,
                   std::initializer_list<NetId> new_fanins) {
    rewire_gate(gate, new_cell, std::span<const NetId>(new_fanins));
  }

  /// Repoints input pin `pin` of `gate` to `new_net`.
  void reconnect_pin(GateId gate, int pin, NetId new_net);

  /// Removes a gate (tombstone). Its output net keeps its fanouts — the
  /// caller must have repointed or be about to repoint them; validate()
  /// reports nets that end up dangling-with-fanouts.
  void remove_gate(GateId gate);

  /// Moves every fanout pin of `from` (and every output port on `from`)
  /// onto `to`.
  void transfer_fanouts(NetId from, NetId to);

  /// Like transfer_fanouts, but skips input pins of `except_gate` (used
  /// when a freshly inserted gate on `from` must keep reading it).
  void transfer_fanouts_except(NetId from, NetId to, GateId except_gate);

  /// Repoints output ports referencing `from` to `to` (no pin changes).
  void repoint_output_ports(NetId from, NetId to);

  // ---- access ----

  std::size_t num_gates() const { return gates_.size(); }   // incl. dead
  std::size_t num_live_gates() const { return live_gates_; }
  std::size_t num_nets() const { return nets_.size(); }

  // Defined here, not out of line: every layer's inner loop reads them.
  const Gate& gate(GateId id) const {
    ODCFP_CHECK(id < gates_.size());
    return gates_[id];
  }
  const Net& net(NetId id) const {
    ODCFP_CHECK(id < nets_.size());
    return nets_[id];
  }
  const Cell& cell_of(GateId id) const;

  const std::vector<NetId>& inputs() const { return pis_; }
  const std::vector<OutputPort>& outputs() const { return pos_; }

  /// kInvalidNet / kInvalidGate when no net / live gate has the name.
  NetId find_net(std::string_view name) const;
  GateId find_gate(std::string_view name) const;
  /// Index in outputs() of the port named `name`; kInvalidPort if none.
  std::uint32_t find_output(std::string_view name) const;

  /// Renames a net; the new name must be unique.
  void rename_net(NetId id, const std::string& name);

  // ---- global queries ----

  /// Live gates in topological (fanin-before-fanout) order, deterministic
  /// regardless of fanout-list order: Kahn's algorithm that always takes
  /// the smallest ready gate id. Use this wherever the order is
  /// observable (serialization, iteration that must be reproducible).
  /// Throws CheckError on a combinational cycle.
  std::vector<GateId> topo_order() const;

  /// Fast topological order (plain Kahn queue, order depends on fanout
  /// lists). Same validity guarantees; use in analysis hot paths (STA,
  /// power, simulation) where only topological validity matters.
  std::vector<GateId> topo_order_fast() const;

  /// Logic depth of each gate (PI = level 0 source; a gate's level is
  /// 1 + max level over fanins). Indexed by GateId; dead gates get 0.
  std::vector<int> gate_levels() const;

  /// Maximum gate level (0 for an empty netlist).
  int depth() const;

  /// Sum of cell areas over live gates.
  double total_area() const;

  /// True if `net` feeds exactly one gate input pin and no output port.
  bool has_single_fanout(NetId net) const;

  /// Structural sanity check; throws CheckError with a description of the
  /// first violated invariant. `allow_dangling` tolerates nets without
  /// sinks (useful mid-rewrite).
  void validate(bool allow_dangling = false) const;

  /// Removes gates whose output reaches no primary output (iteratively),
  /// returning how many gates were swept.
  std::size_t sweep_dangling();

  /// Squeezes out tombstoned gates. Net ids are preserved; gate ids are
  /// remapped (old id -> new id map returned, dead gates -> kInvalidGate).
  std::vector<GateId> compact();

  /// Fresh unique net / gate names with the given prefix.
  std::string fresh_net_name(const std::string& prefix);
  std::string fresh_gate_name(const std::string& prefix);

 private:
  NetId add_net(const std::string& name, GateId driver, bool is_pi);
  void detach_pin(GateId gate, int pin);
  void attach_pin(GateId gate, int pin, NetId net);

  /// `name_of` arguments of the three NameTables.
  auto net_names() const {
    return [this](std::uint32_t id) -> std::string_view {
      return nets_[id].name;
    };
  }
  auto gate_names() const {
    return [this](std::uint32_t id) -> std::string_view {
      return gates_[id].name;
    };
  }
  auto port_names() const {
    return [this](std::uint32_t id) -> std::string_view {
      return pos_[id].name;
    };
  }

  const CellLibrary* library_;
  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> nets_;
  std::vector<NetId> pis_;
  std::vector<OutputPort> pos_;
  NameTable port_by_name_;  ///< Output port indices, by port name.
  NameTable net_by_name_;
  NameTable gate_by_name_;  ///< Live gates only.
  /// Tombstoned gate ids whose output nets are free for reuse — keeps
  /// heavy apply/undo churn (the reactive heuristic performs tens of
  /// thousands of trial modifications) from growing the arrays.
  std::vector<GateId> free_gates_;
  std::size_t live_gates_ = 0;
  std::uint64_t name_counter_ = 0;
};

/// Canonical name-wise description of the netlist's structure: sorted
/// lines for PIs, output ports, and live gates (name, cell, fanin net
/// names, output net name). Two netlists with equal signatures are
/// structurally identical up to gate/net id numbering. Used to verify
/// that undoing all fingerprint modifications restores the original.
std::string structural_signature(const Netlist& nl);

/// Per-kind gate histogram of live gates.
std::vector<std::pair<CellKind, std::size_t>> kind_histogram(
    const Netlist& nl);

}  // namespace odcfp
