// Framed request/response wire for the fingerprinting service daemon.
//
// The service plane (src/service/) talks over a local SOCK_STREAM unix
// socket. Every message is one frame:
//
//   "OFP1" | u32le payload_len | u32le crc32(payload) | payload bytes
//
// mirroring the write-ahead journal's conventions (src/common/journal):
// explicit magic, explicit length, CRC-checked content, and a parser
// that rejects damage instead of guessing. Payloads are the same
// line-style `verb key=value ...` text the journal records use, so a
// captured frame is directly human-readable in a debris dump.
//
// Trust model: the socket is local and mode-restricted, but the server
// still treats every byte as hostile — length bounds before allocation,
// CRC before parsing, typed errors for every failure shape — because a
// wedged or version-skewed client must never be able to take the daemon
// down with a garbage frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace odcfp::service::wire {

/// Upper bound on one frame's payload. Requests are small kv lines; a
/// length field beyond this is damage (or an attack), not a big request.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Writes one frame to `fd`. Returns false (with a diagnostic in *error)
/// on a closed peer or I/O failure; partial writes are retried until the
/// frame is fully flushed or the descriptor errors.
bool send_frame(int fd, std::string_view payload, std::string* error);

enum class RecvStatus {
  kOk,         ///< one well-formed frame read into *payload
  kClosed,     ///< peer closed before a full frame arrived
  kTimeout,    ///< timeout_ms elapsed with the frame incomplete
  kMalformed,  ///< bad magic, oversized length, or CRC mismatch
  kError,      ///< read(2) failed
};

/// Reads one frame. timeout_ms < 0 blocks indefinitely. On kMalformed
/// the connection must be dropped: framing is lost, nothing after the
/// damage can be trusted.
RecvStatus recv_frame(int fd, std::string* payload, std::string* error,
                      int timeout_ms = -1);

// ---- kv payload helpers ----
//
// Payloads are `verb key=value key=value ...`. Values are space-free
// except the conventionally LAST field (label=, detail=), which runs to
// the end of the payload.

/// First whitespace-delimited token ("" for an empty payload).
std::string_view verb_of(std::string_view payload);

/// Value of `key=` up to the next space; "" when the key is absent.
std::string get_field(std::string_view payload, std::string_view key);

/// Value of `key=` through the END of the payload (for label/detail
/// fields that may contain spaces); "" when absent.
std::string get_tail_field(std::string_view payload, std::string_view key);

/// Parses `key=` as decimal u64 (record_log::parse_u64). False when
/// absent, non-numeric, or above 2^64-1.
bool get_u64(std::string_view payload, std::string_view key,
             std::uint64_t* out);

}  // namespace odcfp::service::wire
