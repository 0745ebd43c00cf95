#include "service/request_log.hpp"

#include <charconv>
#include <string>
#include <system_error>

namespace odcfp::service {

namespace {

const record_log::Format kFormat{
    "odcfp-requests 1",
    "request log",
    false,
    {{'A', "admitted record"}, {'T', "terminal record"}},
    nullptr,
    "service.request_log_torn_tail_dropped"};

constexpr record_log::AppendSite kAppendSite{
    "service.request_log.append", nullptr,
    "service.request_log_append_failed", false};

std::string admitted_payload(const AdmittedRecord& r) {
  return "id=" + std::to_string(r.id) + " tenant=" + r.spec.tenant +
         " circuit=" + r.spec.circuit +
         " buyers=" + std::to_string(r.spec.buyers) +
         " seed=" + std::to_string(r.spec.seed) +
         " deadline=" + std::to_string(r.spec.deadline_ms) +
         " priority=" + std::to_string(r.priority) +
         " verify=" + (r.spec.verify ? "1" : "0") +
         " wall=" + std::to_string(r.wall_ns) + " label=" + r.spec.label;
}

/// A decimal int, sign allowed (tenant priorities may be negative).
bool parse_int(std::string_view text, int* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

bool parse_admitted_payload(std::string_view payload, AdmittedRecord* out) {
  record_log::Fields in(payload);
  std::string_view tenant, circuit, priority;
  std::uint64_t verify = 0;
  if (!in.u64("id", &out->id) || !in.text("tenant", &tenant) ||
      !in.text("circuit", &circuit) || !in.u64("buyers", &out->spec.buyers) ||
      !in.u64("seed", &out->spec.seed) ||
      !in.u64("deadline", &out->spec.deadline_ms) ||
      !in.text("priority", &priority) ||
      !parse_int(priority, &out->priority) || !in.u64("verify", &verify) ||
      !in.u64("wall", &out->wall_ns) || !in.tail("label", &out->spec.label)) {
    return false;
  }
  out->spec.tenant = std::string(tenant);
  out->spec.circuit = std::string(circuit);
  out->spec.verify = verify != 0;
  return !tenant.empty() && !circuit.empty();
}

std::string terminal_payload(const TerminalRecord& r) {
  return "id=" + std::to_string(r.id) +
         " committed=" + std::to_string(r.committed) +
         " crc=" + record_log::hex(r.artifact_crc, 8) +
         " outcome=" + r.outcome + " detail=" + r.detail;
}

bool parse_terminal_payload(std::string_view payload, TerminalRecord* out) {
  record_log::Fields in(payload);
  std::string_view outcome;
  if (!in.u64("id", &out->id) || !in.u64("committed", &out->committed) ||
      !in.hex("crc", &out->artifact_crc) || !in.text("outcome", &outcome) ||
      !in.tail("detail", &out->detail)) {
    return false;
  }
  out->outcome = std::string(outcome);
  return !outcome.empty();
}

}  // namespace

std::vector<AdmittedRecord> RequestLogReplay::pending() const {
  std::vector<AdmittedRecord> out;
  for (const AdmittedRecord& a : admitted) {
    if (terminal.find(a.id) == terminal.end()) out.push_back(a);
  }
  return out;
}

Outcome<RequestLogReplay> read_request_log(const std::string& path) {
  RequestLogReplay replay;
  const Outcome<record_log::Scan> scan = record_log::replay(
      path, kFormat,
      [&](char tag, std::string_view payload, std::size_t, std::string*) {
        if (tag == 'T') {
          TerminalRecord record;
          if (!parse_terminal_payload(payload, &record)) return false;
          replay.terminal[record.id] = std::move(record);
          return true;
        }
        AdmittedRecord record;
        if (!parse_admitted_payload(payload, &record)) return false;
        if (record.id >= replay.next_id) replay.next_id = record.id + 1;
        replay.admitted.push_back(std::move(record));
        return true;
      });
  if (!scan.ok()) return Outcome<RequestLogReplay>::malformed(scan.message());
  replay.torn_tail = scan.value().torn_tail;
  replay.valid_bytes = scan.value().valid_bytes;
  return Outcome<RequestLogReplay>::success(std::move(replay));
}

RequestLog::RequestLog() : writer_(kFormat) {}
RequestLog::~RequestLog() = default;
RequestLog::RequestLog(RequestLog&&) noexcept = default;
RequestLog& RequestLog::operator=(RequestLog&&) noexcept = default;

bool RequestLog::is_open() const { return writer_.is_open(); }
void RequestLog::close() { writer_.close(); }

Outcome<RequestLog> RequestLog::create(const std::string& path) {
  Outcome<record_log::Writer> created =
      record_log::Writer::create(path, kFormat, nullptr);
  if (!created.ok()) return Outcome<RequestLog>::malformed(created.message());
  RequestLog log;
  log.writer_ = std::move(created).value();
  return Outcome<RequestLog>::success(std::move(log));
}

Outcome<RequestLog> RequestLog::append_to(const std::string& path,
                                          const RequestLogReplay& replay) {
  Outcome<record_log::Writer> opened =
      record_log::Writer::reopen(path, kFormat, replay.valid_bytes, 0);
  if (!opened.ok()) return Outcome<RequestLog>::malformed(opened.message());
  RequestLog log;
  log.writer_ = std::move(opened).value();
  return Outcome<RequestLog>::success(std::move(log));
}

bool RequestLog::append_admitted(const AdmittedRecord& record,
                                 std::string* error) {
  return writer_.append(
      kAppendSite,
      [&](std::uint64_t) {
        return record_log::format_line('A', admitted_payload(record));
      },
      error);
}

bool RequestLog::append_terminal(const TerminalRecord& record,
                                 std::string* error) {
  return writer_.append(
      kAppendSite,
      [&](std::uint64_t) {
        return record_log::format_line('T', terminal_payload(record));
      },
      error);
}

}  // namespace odcfp::service
