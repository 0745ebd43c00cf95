// Fingerprint embedding, removal, and extraction.
//
// A *code* assigns to every injection site of every location an option
// index: 0 leaves the site untouched, i >= 1 applies the site's option
// i-1. The embedder mutates a working netlist and keeps an undo log per
// site, so individual modifications can be removed in any order — the
// reactive overhead heuristic (paper §IV.B) depends on this.
//
// Lifetime: an embedder borrows both the netlist it edits and the
// location list it reads; neither is copied, and both must outlive it.
// Binding a temporary location list does not compile. Its per-site state
// is one flat array, and each site's undo log is held inline (at most six
// edits), so applying and removing a site allocates nothing beyond what
// the netlist edit itself needs.
//
// Mechanics of one injection (site gate f, literal L):
//  * if the library has a same-kind cell one input wider, f is *widened*
//    (INV becomes NAND2, BUF becomes AND2);
//  * otherwise a 2-input gate of f's identity class is *appended* on f's
//    output and f's former fanouts are moved to it.
// A complemented literal adds an inverter on the source net. Added gates
// are named with the kAddedGatePrefix / kInverterPrefix prefixes; nets and
// pre-existing gates keep their names, which is what makes designer-side
// extraction (compare against the unfingerprinted golden netlist, paper
// §III.E) purely structural.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fingerprint/location.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

/// code[loc][site] in [0, 1 + options(site)).
using FingerprintCode = std::vector<std::vector<std::uint8_t>>;

inline constexpr const char* kAddedGatePrefix = "fp_add_";
inline constexpr const char* kInverterPrefix = "fp_inv_";

/// An all-zero (blank) code shaped like `locs`.
FingerprintCode blank_code(const std::vector<FingerprintLocation>& locs);

/// The gates that are injection sites of some location in `locs`: a
/// sorted id list, so building one allocates once, not once per gate.
class SiteGateSet {
 public:
  explicit SiteGateSet(const std::vector<FingerprintLocation>& locs);

  bool contains(GateId gate) const {
    return std::binary_search(gates_.begin(), gates_.end(), gate);
  }

 private:
  std::vector<GateId> gates_;
};

class FingerprintEmbedder {
 public:
  /// The embedder mutates `nl` in place and reads `locations`; it keeps
  /// references to both, so both must outlive it.
  FingerprintEmbedder(Netlist& nl,
                      const std::vector<FingerprintLocation>& locations);
  FingerprintEmbedder(Netlist&, std::vector<FingerprintLocation>&&) = delete;

  const std::vector<FingerprintLocation>& locations() const {
    return *locations_;
  }
  const Netlist& netlist() const { return *nl_; }

  std::size_t num_sites() const { return sites_.size(); }

  /// Flat site index -> (location, site) pair.
  struct SiteRef {
    std::size_t loc;
    std::size_t site;
  };
  SiteRef site_ref(std::size_t flat_index) const;

  /// Currently applied option at a site (0 = none).
  int applied_option(std::size_t loc, std::size_t site) const;

  /// Applies option `option` (1-based) at the site; the site must be
  /// currently unmodified.
  void apply(std::size_t loc, std::size_t site, int option);

  /// Undoes whatever is applied at the site (no-op if nothing is).
  void remove(std::size_t loc, std::size_t site);

  /// Applies a full code (removing any current modifications first).
  void apply_code(const FingerprintCode& code);

  /// Applies option 1 (the generic Fig. 4 injection) at every site — the
  /// paper's "maximum fingerprint" configuration measured in Table II.
  void apply_all_generic();

  void remove_all();

  std::size_t num_applied() const { return num_applied_; }

  /// The currently applied code.
  FingerprintCode current_code() const;

  /// Replaces `gates` with the gates whose structure/loading the applied
  /// modification at this site touches: the site gate plus any added
  /// inverter/append gates. Empty if the site is unmodified. Used by the
  /// heuristics to restrict trial removals to modifications that can
  /// affect the critical path; a reused buffer makes the call allocate
  /// nothing.
  void touched_gates(std::size_t loc, std::size_t site,
                     std::vector<GateId>& gates) const;

 private:
  /// Netlist edits one apply can make: an option injects at most two
  /// literals, and each costs at most an inverter plus either a widen or
  /// an appended gate with its fanout transfer.
  static constexpr std::size_t kMaxOps = 6;

  struct Op {
    enum class Kind : std::uint8_t { kWiden, kAddGate, kTransfer };
    Kind kind = Kind::kAddGate;
    GateId gate = kInvalidGate;       // kWiden / kAddGate
    CellId old_cell = kInvalidCell;   // kWiden
    NetId from = kInvalidNet;         // kTransfer
    NetId to = kInvalidNet;           // kTransfer
  };
  /// One site: where it is, what is applied, and the undo log of the
  /// applied option (ops[0, num_ops), oldest first).
  struct SiteState {
    SiteRef ref;
    int option = 0;
    std::uint8_t num_ops = 0;
    std::array<Op, kMaxOps> ops;
  };

  /// sites_ index of (loc, site); throws CheckError when out of range.
  std::size_t index_of(std::size_t loc, std::size_t site) const;
  static void record(SiteState& st, const Op& op);

  NetId literal_net(NetId source, bool invert, SiteState& st);
  void inject_literal(GateId site_gate, InjectClass cls, NetId lit,
                      SiteState& st);
  /// Reverts the site's undo log (newest first) and empties it; shared by
  /// remove() and the exception-unwind path of apply().
  void undo_ops(SiteState& st);
  /// The current output net of the site gate's modification chain (after
  /// appends, the appended gate's output).
  NetId chain_output(GateId site_gate) const;

  Netlist* nl_;
  const std::vector<FingerprintLocation>* locations_;
  /// sites_ index of each location's first site.
  std::vector<std::uint32_t> loc_offset_;
  /// Every site in flat order (locations in order, then their sites).
  std::vector<SiteState> sites_;
  SiteGateSet site_gates_;
  std::size_t num_applied_ = 0;
#ifndef NDEBUG
  /// structural_signature of the netlist at construction; remove_all()
  /// asserts full restoration against it in debug builds.
  std::string pristine_signature_;
#endif
};

/// Finds a pre-existing (non-fingerprint, non-site) inverter driven by
/// `source`, returning its output net; kInvalidNet if none. Shared by the
/// embedder (reuse instead of adding an inverter) and the extractor
/// (predicting that reuse from the golden netlist).
NetId find_reusable_inverter(const Netlist& nl, NetId source,
                             const SiteGateSet& site_gates);

/// Recovers the embedded code by structurally comparing a fingerprinted
/// netlist against the golden netlist the locations were computed on.
/// Gates and nets are matched by name. Throws CheckError if the
/// fingerprinted netlist contains modifications that match no option.
FingerprintCode extract_code(const Netlist& fingerprinted,
                             const Netlist& golden,
                             const std::vector<FingerprintLocation>& locs);

/// Per-site verdict of the lenient extractor.
enum class SiteReadStatus : std::uint8_t {
  kRecovered,   ///< Site matched an option (or the unmodified form).
  kSiteMissing, ///< The site gate no longer exists (e.g. resynthesized).
  kUnknownMod,  ///< The site exists but matches no known option.
};

struct LenientExtraction {
  FingerprintCode code;                   ///< 0 where not recovered.
  std::vector<std::vector<SiteReadStatus>> status;  ///< [loc][site]
  std::size_t recovered = 0;
  std::size_t damaged = 0;  ///< missing + unknown
};

/// Like extract_code but tolerates tampering/resynthesis: sites whose
/// structure was destroyed are reported instead of throwing. Used for
/// the attack-robustness analysis (paper §III.E: tracing works while the
/// attacker "does not remove all the fingerprint information").
LenientExtraction extract_code_lenient(
    const Netlist& fingerprinted, const Netlist& golden,
    const std::vector<FingerprintLocation>& locs);

}  // namespace odcfp
