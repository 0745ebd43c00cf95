#include "fingerprint/location.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/embedder.hpp"
#include "netlist/cones.hpp"
#include "odc/odc.hpp"

namespace odcfp {

double FingerprintLocation::capacity_bits() const {
  double bits = 0;
  for (const InjectionSite& s : sites) {
    bits += std::log2(1.0 + static_cast<double>(s.options.size()));
  }
  return bits;
}

double FingerprintLocation::num_configurations() const {
  double n = 1;
  for (const InjectionSite& s : sites) {
    n *= 1.0 + static_cast<double>(s.options.size());
  }
  return n;
}

double total_capacity_bits(const std::vector<FingerprintLocation>& locs) {
  double bits = 0;
  for (const auto& l : locs) bits += l.capacity_bits();
  return bits;
}

std::size_t total_sites(const std::vector<FingerprintLocation>& locs) {
  std::size_t n = 0;
  for (const auto& l : locs) n += l.sites.size();
  return n;
}

InjectClass inject_class_for(CellKind kind) {
  switch (kind) {
    case CellKind::kAnd:
    case CellKind::kNand:
    case CellKind::kInv:   // widened to NAND2(a, L), identity L = 1
    case CellKind::kBuf:   // widened to AND2(a, L)
      return InjectClass::kAndLike;
    case CellKind::kOr:
    case CellKind::kNor:
      return InjectClass::kOrLike;
    case CellKind::kXor:
    case CellKind::kXnor:
      return InjectClass::kXorLike;
    default:
      ODCFP_CHECK_MSG(false, "cell kind " << cell_kind_name(kind)
                                          << " cannot be an injection site");
  }
}

bool is_site_kind(CellKind kind, const LocationFinderOptions& options) {
  switch (kind) {
    case CellKind::kAnd:
    case CellKind::kNand:
    case CellKind::kOr:
    case CellKind::kNor:
    case CellKind::kInv:
    case CellKind::kBuf:
      return true;
    case CellKind::kXor:
    case CellKind::kXnor:
      return options.allow_xor_sites;
    default:
      return false;
  }
}

namespace {

/// Polarity of the injected literal: it must evaluate to the site class's
/// identity element whenever the source signal is *not* at its
/// trigger/forcing value `v`.
bool injection_invert(InjectClass cls, int v) {
  // AND-like identity is 1: literal must be 1 when source == !v, so the
  // literal is the source itself iff v == 0. OR/XOR-like identity is 0:
  // literal must be 0 when source == !v, so the literal is the source
  // itself iff v == 1.
  return (cls == InjectClass::kAndLike) ? (v == 1) : (v == 0);
}

/// Inputs of `gx` that force its output to `target`: pairs (pin, value).
std::vector<std::pair<int, int>> forcing_inputs(const TruthTable& tt,
                                                int target) {
  std::vector<std::pair<int, int>> result;
  for (int pin = 0; pin < tt.num_inputs(); ++pin) {
    for (int v = 0; v <= 1; ++v) {
      const TruthTable cof = tt.cofactor(pin, v != 0);
      if (cof.is_constant() &&
          static_cast<int>(cof.constant_value()) == target) {
        result.emplace_back(pin, v);
      }
    }
  }
  return result;
}

/// One analyzed Y-pin candidate of a primary gate. Everything in here is
/// a pure function of the immutable netlist — the state-dependent
/// conflict filters (used sites, tapped nets, other locations' Y nets)
/// are applied later, during the sequential commit replay.
struct YCandidate {
  int pin = -1;
  NetId y = kInvalidNet;
  GateId ydrv = kInvalidGate;
  /// ODC-capable gates of the FFC, in cone order (kind-filtered only).
  std::vector<GateId> site_gates;
  struct Trigger {
    int pin;
    int value;
    int depth;
  };
  /// Valid ODC triggers (pure criteria only), in pin order.
  std::vector<Trigger> triggers;
};

/// Per-primary-gate analysis: Y-pin candidates in depth-preference order.
struct PrimaryAnalysis {
  std::vector<YCandidate> candidates;
};

/// Phase A of find_locations: Definition 1's per-primary-gate analysis
/// (MFFC extraction, cone-input collection, ODC trigger enumeration).
/// Reads only the const netlist, so the location finder fans this out
/// across a thread pool, one item per primary gate.
PrimaryAnalysis analyze_primary(const Netlist& nl, GateId primary,
                                const std::vector<int>& levels,
                                const LocationFinderOptions& options) {
  PrimaryAnalysis analysis;
  const Gate& pg = nl.gate(primary);
  const TruthTable& ptt = nl.cell_of(primary).function;
  const int arity = ptt.num_inputs();
  // Criterion counters mirror Definition 1: a primary gate needs (1) a
  // non-PI input that (2) feeds only the primary gate (an FFC output),
  // (3) a usable injection-site kind inside that FFC, and (4) an
  // independent ODC trigger on another pin.
  if (arity < 2) {
    TELEM_COUNT("loc.reject.arity", 1);
    return analysis;
  }

  // Net depth: level of the driving gate (PIs are depth 0).
  auto net_depth = [&](NetId n) {
    const GateId d = nl.net(n).driver;
    return d == kInvalidGate ? 0 : levels[d];
  };

  // Candidate Y pins, preferring the deepest FFC root (paper: "choose
  // fan in with greatest depth").
  std::vector<int> y_pins(static_cast<std::size_t>(arity));
  for (int i = 0; i < arity; ++i) y_pins[static_cast<std::size_t>(i)] = i;
  std::sort(y_pins.begin(), y_pins.end(), [&](int a, int b) {
    return net_depth(pg.fanins[static_cast<std::size_t>(a)]) >
           net_depth(pg.fanins[static_cast<std::size_t>(b)]);
  });

  for (int py : y_pins) {
    const NetId y = pg.fanins[static_cast<std::size_t>(py)];
    // Criterion 1+2: Y is not a PI and feeds only the primary gate.
    if (nl.net(y).is_pi || nl.net(y).driver == kInvalidGate) {
      TELEM_COUNT("loc.reject.y_not_gate_driven", 1);
      continue;
    }
    if (!nl.has_single_fanout(y)) {
      TELEM_COUNT("loc.reject.y_multi_fanout", 1);
      continue;
    }
    const GateId ydrv = nl.net(y).driver;

    // Criterion 3: the FFC rooted at ydrv contains a usable site kind.
    const std::vector<GateId> cone = mffc(nl, ydrv);
    YCandidate cand;
    cand.pin = py;
    cand.y = y;
    cand.ydrv = ydrv;
    for (GateId c : cone) {
      if (is_site_kind(nl.cell_of(c).kind, options)) {
        cand.site_gates.push_back(c);
      }
    }
    if (cand.site_gates.empty()) {
      TELEM_COUNT("loc.reject.no_site_kind", 1);
      continue;
    }

    // Nets already feeding the FFC: the trigger must be independent of
    // the FFC ("signal X is independent of the FFC that generates
    // signal Y", §III.C) — this is also what makes an embedded
    // modification destroy its own location (§III.E). Independence is
    // polarity-insensitive: a signal entering through an inverter or
    // buffer is still the same signal.
    std::unordered_set<NetId> cone_inputs;
    for (GateId c : cone) {
      for (NetId in : nl.gate(c).fanins) {
        cone_inputs.insert(in);
        const GateId d = nl.net(in).driver;
        if (d != kInvalidGate) {
          const CellKind dk = nl.cell_of(d).kind;
          if (dk == CellKind::kInv || dk == CellKind::kBuf) {
            cone_inputs.insert(nl.gate(d).fanins[0]);
          }
        }
      }
    }

    // Criterion 4: some other pin is a valid trigger for Y.
    for (int px = 0; px < arity; ++px) {
      if (px == py) continue;
      const NetId x = pg.fanins[static_cast<std::size_t>(px)];
      if (x == y) continue;               // same net on two pins
      if (cone_inputs.count(x)) continue;  // not independent of FFC
      for (int v : trigger_values(ptt, px, py)) {
        cand.triggers.push_back({px, v, net_depth(x)});
      }
    }
    if (cand.triggers.empty()) {
      TELEM_COUNT("loc.reject.no_trigger", 1);
      continue;
    }

    TELEM_COUNT("loc.candidates", 1);
    analysis.candidates.push_back(std::move(cand));
  }
  return analysis;
}

}  // namespace

std::vector<FingerprintLocation> find_locations(
    const Netlist& nl, const LocationFinderOptions& options) {
  TELEM_SPAN("find_locations");
  std::vector<FingerprintLocation> locations;
  Rng rng(options.seed);
  const std::vector<int> levels = nl.gate_levels();
  const std::vector<GateId> order = nl.topo_order();

  // Phase A (parallel): the pure per-primary analysis. Results are keyed
  // by topo position, so the vector is identical for any pool size.
  auto [analyses, phase_status] = parallel_map(
      options.pool, order.size(), [&](std::size_t i) {
        TELEM_SPAN("find_locations.analyze");
        return analyze_primary(nl, order[i], levels, options);
      });
  (void)phase_status;  // no budget on this loop: always kOk

  TELEM_SPAN("find_locations.commit");

  // Phase B (sequential): greedy commit in topological order. The
  // conflict filters below depend on previously accepted locations, so
  // this replay is what makes the result deterministic — and identical
  // to analyzing each primary lazily in one pass.
  std::unordered_set<GateId> used_sites;
  std::unordered_set<NetId> y_nets;      // FFC outputs of accepted locations
  std::unordered_set<NetId> tapped_nets; // trigger/source nets in use
  // Outputs of accepted injection sites. A modification may re-route a
  // site's output through an appended gate, so no other location may tap
  // such a net as its trigger/source (the tap and the consumer pin would
  // diverge when the first fingerprint is active).
  std::unordered_set<NetId> site_outputs;

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const GateId primary = order[idx];
    const Gate& pg = nl.gate(primary);

    FingerprintLocation best_loc;
    bool found = false;

    for (const YCandidate& cand : analyses[idx].candidates) {
      const int py = cand.pin;
      const NetId y = cand.y;
      if (tapped_nets.count(y)) {  // already a trigger elsewhere
        TELEM_COUNT("loc.commit.reject_y_tapped", 1);
        continue;
      }
      const GateId ydrv = cand.ydrv;

      // Drop sites consumed by earlier locations.
      std::vector<GateId> site_gates;
      for (GateId c : cand.site_gates) {
        if (used_sites.count(c)) continue;
        if (tapped_nets.count(nl.gate(c).output)) continue;
        site_gates.push_back(c);
      }
      if (site_gates.empty()) {
        TELEM_COUNT("loc.commit.reject_sites_consumed", 1);
        continue;
      }

      // Drop triggers consumed by earlier locations.
      struct TriggerCandidate {
        int pin;
        int value;
        int depth;
      };
      std::vector<TriggerCandidate> triggers;
      for (const YCandidate::Trigger& t : cand.triggers) {
        const NetId x = pg.fanins[static_cast<std::size_t>(t.pin)];
        if (y_nets.count(x)) continue;    // x is another location's Y
        if (site_outputs.count(x)) continue;  // may be re-routed later
        triggers.push_back({t.pin, t.value, t.depth});
      }
      if (triggers.empty()) {
        TELEM_COUNT("loc.commit.reject_triggers_consumed", 1);
        continue;
      }

      // Deepest sites first (they need their result latest — paper's
      // depth heuristic), capped.
      std::sort(site_gates.begin(), site_gates.end(),
                [&](GateId a, GateId b) { return levels[a] > levels[b]; });
      if (options.max_sites_per_location > 0 &&
          static_cast<int>(site_gates.size()) >
              options.max_sites_per_location) {
        site_gates.resize(
            static_cast<std::size_t>(options.max_sites_per_location));
      }

      // Pick the trigger (earliest depth by default).
      const TriggerCandidate* chosen = nullptr;
      if (options.trigger_policy ==
          LocationFinderOptions::TriggerPolicy::kRandom) {
        chosen = &triggers[static_cast<std::size_t>(
            rng.next_below(triggers.size()))];
      } else {
        for (const TriggerCandidate& t : triggers) {
          if (chosen == nullptr || t.depth < chosen->depth ||
              (t.depth == chosen->depth && t.pin < chosen->pin)) {
            chosen = &t;
          }
        }
      }
      const NetId x = pg.fanins[static_cast<std::size_t>(chosen->pin)];

      // Build the location.
      FingerprintLocation loc;
      loc.primary = primary;
      loc.y_pin = py;
      loc.y_net = y;
      loc.y_driver = ydrv;
      loc.trigger_pin = chosen->pin;
      loc.trigger_net = x;
      loc.trigger_value = chosen->value;

      // Reroute sources: inputs of X's driver that force X to the trigger
      // value (Fig. 5). Only available when X is itself gate-driven.
      std::vector<std::pair<int, int>> forcing;
      const GateId xdrv = nl.net(x).driver;
      if (options.enable_reroute && xdrv != kInvalidGate) {
        forcing = forcing_inputs(nl.cell_of(xdrv).function,
                                 chosen->value);
        // Drop sources that are other locations' Y nets or site outputs.
        std::erase_if(forcing, [&](const std::pair<int, int>& f) {
          const NetId src =
              nl.gate(xdrv).fanins[static_cast<std::size_t>(f.first)];
          return y_nets.count(src) > 0 || src == y ||
                 site_outputs.count(src) > 0;
        });
      }

      for (GateId sg : site_gates) {
        InjectionSite site;
        site.gate = sg;
        site.inject_class = inject_class_for(nl.cell_of(sg).kind);

        // Drop duplicate modifications (same injected literals produce an
        // identical circuit and could not be told apart at extraction).
        auto push_unique = [&site](const ModOption& o) {
          for (const ModOption& e : site.options) {
            if (e.source == o.source && e.invert == o.invert &&
                e.source2 == o.source2 && e.invert2 == o.invert2) {
              return;
            }
          }
          site.options.push_back(o);
        };

        ModOption generic;
        generic.kind = ModOption::Kind::kGeneric;
        generic.source = x;
        generic.invert = injection_invert(site.inject_class, chosen->value);
        push_unique(generic);

        for (std::size_t i = 0; i < forcing.size(); ++i) {
          const NetId src = nl.gate(xdrv).fanins[
              static_cast<std::size_t>(forcing[i].first)];
          ModOption one;
          one.kind = ModOption::Kind::kRerouteOne;
          one.source = src;
          one.invert = injection_invert(site.inject_class,
                                        forcing[i].second);
          push_unique(one);
          for (std::size_t j = i + 1; j < forcing.size(); ++j) {
            const NetId src2 = nl.gate(xdrv).fanins[
                static_cast<std::size_t>(forcing[j].first)];
            if (src2 == src) continue;
            ModOption two;
            two.kind = ModOption::Kind::kRerouteTwo;
            two.source = src;
            two.invert = injection_invert(site.inject_class,
                                          forcing[i].second);
            two.source2 = src2;
            two.invert2 = injection_invert(site.inject_class,
                                           forcing[j].second);
            push_unique(two);
          }
        }
        loc.sites.push_back(std::move(site));
      }

      best_loc = std::move(loc);
      found = true;
      break;  // one location per primary gate (paper pseudo-code)
    }

    if (!found) continue;

    // Commit: reserve the structures this location relies on.
    for (const InjectionSite& s : best_loc.sites) {
      used_sites.insert(s.gate);
      site_outputs.insert(nl.gate(s.gate).output);
    }
    y_nets.insert(best_loc.y_net);
    tapped_nets.insert(best_loc.trigger_net);
    for (const InjectionSite& s : best_loc.sites) {
      for (const ModOption& o : s.options) {
        tapped_nets.insert(o.source);
        if (o.source2 != kInvalidNet) tapped_nets.insert(o.source2);
      }
    }
    TELEM_COUNT("loc.accepted", 1);
    TELEM_COUNT("loc.sites",
                static_cast<std::int64_t>(best_loc.sites.size()));
    locations.push_back(std::move(best_loc));
  }

  // Post-pass: canonical-descriptor dedupe. The embedder reuses existing
  // inverters for complemented literals (see find_reusable_inverter), so
  // two nominally different options can produce the *same* physical
  // modification — e.g. the generic injection of X vs rerouting the input
  // of X's INV driver. Such structurally identical options cannot be told
  // apart at extraction; keep only the first of each canonical form.
  const SiteGateSet all_sites(locations);
  using Literal = std::pair<NetId, bool>;
  auto canonical_literal = [&](NetId src, bool inv) -> Literal {
    if (inv) {
      const NetId reused = find_reusable_inverter(nl, src, all_sites);
      if (reused != kInvalidNet) return {reused, false};
    }
    return {src, inv};
  };
  for (FingerprintLocation& loc : locations) {
    for (InjectionSite& site : loc.sites) {
      std::vector<std::vector<Literal>> seen;
      std::vector<ModOption> kept;
      for (const ModOption& o : site.options) {
        std::vector<Literal> desc{canonical_literal(o.source, o.invert)};
        if (o.source2 != kInvalidNet) {
          desc.push_back(canonical_literal(o.source2, o.invert2));
        }
        std::sort(desc.begin(), desc.end());
        if (std::find(seen.begin(), seen.end(), desc) == seen.end()) {
          seen.push_back(std::move(desc));
          kept.push_back(o);
        }
      }
      site.options = std::move(kept);
    }
  }
  return locations;
}

}  // namespace odcfp
