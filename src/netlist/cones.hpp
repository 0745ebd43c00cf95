// Cone queries over a Netlist: transitive fanin/fanout and maximum
// fanout-free cones (MFFC).
//
// The fingerprint location finder (Definition 1 in the paper) needs to know
// (a) whether a signal is the output of a fanout-free cone, and (b) which
// gates lie inside that cone, because every ODC-capable gate in the cone is
// an independent injection point (each adds one fingerprint bit).
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace odcfp {

/// Gates in the transitive fanin cone of `net` (not including PIs),
/// unordered.
std::vector<GateId> transitive_fanin(const Netlist& nl, NetId net);

/// Gates in the transitive fanout cone of `net`, unordered.
std::vector<GateId> transitive_fanout(const Netlist& nl, NetId net);

/// The maximum fanout-free cone rooted at gate `root`: the set of gates
/// (including `root`) all of whose fanout paths pass through `root`'s
/// output. Computed by the standard iterative containment rule: a gate g
/// is in the MFFC iff every fanout of g is a gate already in the MFFC.
/// Output ports count as external fanouts.
std::vector<GateId> mffc(const Netlist& nl, GateId root);

}  // namespace odcfp
