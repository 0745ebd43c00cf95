// Exact don't-care analysis over bounded circuit windows, on truth tables.
//
// The paper computes ODCs gate-locally (Eq. 1) and notes that "ODCs can be
// several layers deep". This module quantifies that headroom exactly:
//
//  * window_odc — for a net y, build the transitive-fanout window of
//    bounded depth, treat the window's side inputs as free variables, and
//    compute the exact condition under which y is unobservable at every
//    window output. Because unobservability through the window implies
//    unobservability at the primary outputs only when the window is
//    output-closed, the reported condition is a sound *lower bound* on
//    the true global ODC when the window is truncated, and exact when the
//    window reaches the POs. A net that drives an output port is observed
//    there directly and is never hidden.
//
//  * window_sdc — for a gate g, build the bounded fanin cone of its input
//    signals and compute exactly which input patterns of g can never
//    occur (satisfiability don't cares). With the cone truncated, the
//    free boundary variables over-approximate reachability, so every
//    reported-impossible pattern is guaranteed impossible. SDC-based
//    fingerprinting is the authors' companion technique (ASP-DAC'15,
//    ref. [9] of the paper).
//
// A window has at most kMaxWindowInputs free variables, so every net in it
// gets its full truth table over them (at most 1,024 words), evaluated
// gate by gate with the simulator's word-parallel eval_signature.
#pragma once

#include <cstdint>

#include "common/budget.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

class ThreadPool;

/// Windows with more free variables than this are refused. It also sizes
/// the truth tables: 2^16 patterns fill 1,024 words per window net.
inline constexpr int kMaxWindowInputs = 16;

struct WindowOptions {
  /// Levels of transitive fanout (ODC) / fanin (SDC) included.
  int depth = 3;
  /// Optional deadline / cancellation caps (nullptr = unlimited).
  const Budget* budget = nullptr;
};

struct WindowOdcResult {
  bool computed = false;       ///< false: window exceeded the input cap.
  double odc_fraction = 0;     ///< fraction of side-input assignments
                               ///< hiding the net (0 = always observable
                               ///< through the window).
  bool output_closed = false;  ///< window reached only POs (result exact).
  /// True when the budget died mid-window and the reported fraction is
  /// the local one-level Eq. 1 estimate instead of the exact window
  /// condition. status is kExhausted in that case.
  bool degraded = false;
  Status status = Status::kOk;
  int window_inputs = 0;
  std::size_t window_gates = 0;
};

/// Local Eq. 1 estimate of a net's ODC fraction: per fanout pin, the
/// fraction of the other-pin assignments hiding the net through that
/// cell, combined across fanout pins under an independence assumption.
/// Exact for a single fanout whose side inputs are uniform and
/// independent; used as the degradation fallback of window_odc.
double local_odc_fraction(const Netlist& nl, NetId net);

WindowOdcResult window_odc(const Netlist& nl, NetId net,
                           const WindowOptions& options = {});

/// window_odc over many nets at once, fanned across `pool` (nullptr =
/// serial). Each window builds its own truth tables, so the items are
/// fully independent; the returned vector is index-aligned with `nets` and
/// byte-identical for any pool size. A shared options.budget cancels the
/// whole batch cooperatively: nets whose window never ran come back as
/// {computed = false, status = kExhausted}.
std::vector<WindowOdcResult> window_odc_batch(
    const Netlist& nl, const std::vector<NetId>& nets,
    const WindowOptions& options = {}, ThreadPool* pool = nullptr);

struct WindowSdcResult {
  bool computed = false;
  /// True when the budget died mid-cone; the reported impossible set is
  /// then the sound empty subset of the truth.
  bool degraded = false;
  Status status = Status::kOk;
  int num_patterns = 0;         ///< 2^k for a k-input gate.
  int impossible_patterns = 0;  ///< provably unreachable input patterns.
  /// Bit p set = pattern p unreachable; 64 bits cover a 6-input cell.
  std::uint64_t impossible_mask = 0;
  int cone_inputs = 0;
};

WindowSdcResult window_sdc(const Netlist& nl, GateId gate,
                           const WindowOptions& options = {});

}  // namespace odcfp
