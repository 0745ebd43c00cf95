// BLIF (Berkeley Logic Interchange Format) reader and writer.
//
// The reader accepts the combinational subset used by the MCNC / ISCAS'85
// benchmark distributions: .model/.inputs/.outputs/.names/.end, cube
// covers with on-set ('1') or off-set ('0') output columns, '\'-line
// continuation and '#' comments. Latches are rejected (the paper's flow is
// purely combinational).
//
// The Netlist API is string-only: to_blif_string formats a mapped netlist
// into one string, one .names block per gate, so that mapped and
// fingerprinted circuits can round-trip through other tools, and
// write_blif_file publishes that string. The SopNetwork writer also works
// on streams.
#pragma once

#include <iosfwd>
#include <string>

#include "common/budget.hpp"
#include "netlist/netlist.hpp"
#include "synth/sop_network.hpp"

namespace odcfp {

/// Parses BLIF text. Throws CheckError on malformed input; every
/// diagnostic names the offending source line. Duplicate .names outputs
/// and .names blocks redefining a declared primary input are rejected.
SopNetwork read_blif_string(const std::string& text);

/// Non-throwing variants for serving paths handling untrusted bytes:
/// malformed input (including an unopenable file) becomes
/// Status::kMalformedInput with the parser's diagnostic as message.
Outcome<SopNetwork> try_read_blif_string(const std::string& text);
Outcome<SopNetwork> try_read_blif_file(const std::string& path);

/// Writes a SopNetwork as BLIF.
void write_blif(std::ostream& os, const SopNetwork& sop);

/// Formats a mapped Netlist as BLIF (each gate becomes a .names block whose
/// cover enumerates the cell's on-set).
std::string to_blif_string(const Netlist& nl);

/// Writes a mapped Netlist to `path` atomically (common/atomic_io temp +
/// rename protocol): the final path never holds a partially-written
/// edition, even across a crash. Throws CheckError on I/O failure.
void write_blif_file(const std::string& path, const Netlist& nl);

}  // namespace odcfp
