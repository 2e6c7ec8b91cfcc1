// Wire protocol + typed error surface for the serving stack.
//
// One grammar, two transports: `serve::wire` owns request parsing,
// response formatting, and the error-code mapping used by every entry
// point — the `bslrec_serve` stdin/file CLI and the `serve::NetServer`
// socket transport (net_server.h) parse and format through the same
// functions, so a request line means exactly the same thing on stdin
// and on a socket, and a response renders identically.
//
// Request grammar (newline-delimited; one request per line; blank
// lines and lines whose first non-blank character is '#' are ignored):
//
//   wire form:
//     TOPK <user> <k> [FILTER=seen|none] [LANE=interactive|bulk]
//          [DEADLINE_US=<n>] [ID=<token>]
//   legacy CLI form (bslrec_serve stdin compatibility; also accepted
//   on the socket):
//     <user> [<k>] [all]
//
// Fields:
//   <user>        user id in [0, num_users)
//   <k>           ranking cutoff in [1, 2^32-1]
//   FILTER=seen   mask the user's train positives (default)
//   FILTER=none   no seen-item filtering (legacy token: "all")
//   LANE=         admission lane (default interactive)
//   DEADLINE_US=  relative SLO in microseconds (0 = front-door default)
//   ID=           opaque client token (<= 64 bytes, no whitespace)
//                 echoed on the response line; defaults to "-"
//
// Response grammar (one line per request, in request order per
// connection / input stream):
//
//   OK <id> <degrade_mode> seq=<snapshot_seq> <item>:<score> ...
//   ERR <id> OVERLOAD retry_after_us=<n>
//   ERR <id> DEADLINE stage=<admission|queue|batch>
//   ERR <id> BAD_REQUEST <detail>
//   ERR <id> INTERNAL <detail>
//
// where <degrade_mode> is none|ivf (DegradeModeName) naming the
// brownout tier that served the response, <snapshot_seq> the
// publication that produced it, and scores print with six decimals
// ("%.6f" — the CLI's historical precision).
//
// Error-code table (ErrorCode <-> wire <-> exception):
//
//   code                wire rendering                    thrown as
//   kOk                 OK ...                            —
//   kOverload           ERR _ OVERLOAD retry_after_us=n   OverloadError
//   kDeadlineAdmission  ERR _ DEADLINE stage=admission    DeadlineExceededError
//   kDeadlineQueue      ERR _ DEADLINE stage=queue        DeadlineExceededError
//   kDeadlineBatch      ERR _ DEADLINE stage=batch        DeadlineExceededError
//   kBadRequest         ERR _ BAD_REQUEST detail          std::invalid_argument
//   kInternal           ERR _ INTERNAL detail             std::runtime_error
//
// `ServeError` (below) is the common base of the front door's typed
// exceptions (OverloadError, DeadlineExceededError —
// serving_frontend.h); `StatusFromException` collapses any exception a
// serving future can carry into a `ServeStatus`, so transports and the
// CLI switch on one enum instead of catch cascades.
#ifndef BSLREC_SERVE_WIRE_H_
#define BSLREC_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/ranking_engine.h"

namespace bslrec::serve {

// One value per way a served request can resolve. The three deadline
// codes mirror DeadlineStage so a wire client can tell *where* the SLO
// was missed without a second field.
enum class ErrorCode : uint8_t {
  kOk = 0,
  kOverload,            // shed by admission control (retriable)
  kDeadlineAdmission,   // SLO passed while blocked for queue space
  kDeadlineQueue,       // SLO passed waiting in the queue
  kDeadlineBatch,       // SLO passed while the batch was scored
  kBadRequest,          // malformed request line or invalid field
  kInternal,            // scoring failure or unexpected error
};
const char* ErrorCodeName(ErrorCode code);

// Which enforcement point caught an expired request.
enum class DeadlineStage : uint8_t {
  kAdmission = 0,  // waited for queue space past the deadline (kBlock)
  kQueue,          // already expired when dequeued
  kBatch,          // expired while its batch was being scored
};
const char* DeadlineStageName(DeadlineStage stage);
ErrorCode ErrorCodeForStage(DeadlineStage stage);
// True iff `code` is one of the three deadline codes; fills `stage`.
bool DeadlineStageForCode(ErrorCode code, DeadlineStage* stage);

// The approximate tier brownout switched a response to.
enum class DegradeMode : uint8_t {
  kNone = 0,  // served at the configured tier
  kIvf,       // IVF ANN at brownout.nprobe probes
};
const char* DegradeModeName(DegradeMode mode);
// Inverse of DegradeModeName; false when `name` matches no mode.
bool DegradeModeFromName(std::string_view name, DegradeMode* mode);

// Common base of the serving stack's typed exceptions: every error a
// front-door future can fail with that has a wire representation
// derives from this and names its ErrorCode.
class ServeError : public std::runtime_error {
 public:
  ServeError(const std::string& what, ErrorCode code)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

// Exception-free view of how a request resolved: the code plus the
// payload the wire rendering needs.
struct ServeStatus {
  ErrorCode code = ErrorCode::kOk;
  std::string detail;           // human detail (BAD_REQUEST / INTERNAL)
  uint32_t retry_after_us = 0;  // kOverload: server-suggested backoff
  bool ok() const { return code == ErrorCode::kOk; }
};

// Collapses any exception a serving future can carry into a status:
// ServeError -> its code (+ retry_after_us for OverloadError),
// std::invalid_argument -> kBadRequest, anything else -> kInternal.
// `error` must be non-null.
ServeStatus StatusFromException(std::exception_ptr error);

namespace wire {

// Longest accepted ID= token.
inline constexpr size_t kMaxIdBytes = 64;

struct ParseOptions {
  // User ids must be in [0, num_users).
  uint32_t num_users = 0;
  // Cutoff when the request names none.
  uint32_t default_k = 10;
  // Longest accepted request line; longer lines are kBadRequest
  // (transports additionally hang up — net_server.h). 0 = unlimited.
  size_t max_line_bytes = 4096;
};

// One parsed request line. `topk.extra_seen` is always empty: the
// wire carries no exclusion lists. A line without LANE= keeps
// TopKRequest's default lane, interactive.
struct ParsedRequest {
  TopKRequest topk;
  std::string id = "-";  // ID= token, or "-" when absent
};

// True when the line is skipped entirely (blank / '#'-comment) rather
// than parsed — the caller emits no response for it.
bool IsIgnorableLine(std::string_view line);

// Parses one request line (either grammar form; the first token
// decides). Returns kOk and fills `out`, or kBadRequest with a detail
// message. On failure `out->id` still carries any ID= token parsed
// before the error, so the ERR line can be correlated.
ServeStatus ParseRequest(std::string_view line, const ParseOptions& options,
                         ParsedRequest* out);

// "OK <id> <mode> seq=<n> <item>:<score> ..." (no trailing newline —
// transports append their own framing).
std::string FormatResponse(std::string_view id, DegradeMode mode,
                           uint64_t snapshot_seq, const TopKResponse& topk);
// "ERR <id> ..." per the response grammar. `status.code` must not be
// kOk. Newlines in the detail are flattened to spaces to keep the
// line protocol intact.
std::string FormatError(std::string_view id, const ServeStatus& status);

// The CLI rendering bslrec_serve has always printed:
// "user=<u> k=<k> items=<item>:<score>,..." — byte-identical to the
// historical printf path.
std::string FormatCliResponse(const TopKRequest& request,
                              const TopKResponse& topk);

// A response line parsed back (tests, client tooling, bench probes).
struct ParsedResponse {
  bool ok = false;  // OK line vs ERR line
  std::string id;
  // OK payload:
  DegradeMode degrade_mode = DegradeMode::kNone;
  uint64_t snapshot_seq = 0;
  TopKResponse topk;
  // ERR payload:
  ServeStatus status;
};

// Parses one response line of either kind; false when the line is not
// a well-formed response.
bool ParseResponse(std::string_view line, ParsedResponse* out);

}  // namespace wire
}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_WIRE_H_
