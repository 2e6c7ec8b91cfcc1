#include "serve/wire.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <vector>

#include "serve/serving_frontend.h"

namespace bslrec::serve {
namespace {

// snprintf into a std::string (all wire strings are short).
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kOverload:
      return "OVERLOAD";
    case ErrorCode::kDeadlineAdmission:
      return "DEADLINE_ADMISSION";
    case ErrorCode::kDeadlineQueue:
      return "DEADLINE_QUEUE";
    case ErrorCode::kDeadlineBatch:
      return "DEADLINE_BATCH";
    case ErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

const char* DeadlineStageName(DeadlineStage stage) {
  switch (stage) {
    case DeadlineStage::kAdmission:
      return "admission";
    case DeadlineStage::kQueue:
      return "queue";
    case DeadlineStage::kBatch:
      return "batch";
  }
  return "unknown";
}

ErrorCode ErrorCodeForStage(DeadlineStage stage) {
  switch (stage) {
    case DeadlineStage::kAdmission:
      return ErrorCode::kDeadlineAdmission;
    case DeadlineStage::kQueue:
      return ErrorCode::kDeadlineQueue;
    case DeadlineStage::kBatch:
      return ErrorCode::kDeadlineBatch;
  }
  return ErrorCode::kInternal;
}

bool DeadlineStageForCode(ErrorCode code, DeadlineStage* stage) {
  switch (code) {
    case ErrorCode::kDeadlineAdmission:
      *stage = DeadlineStage::kAdmission;
      return true;
    case ErrorCode::kDeadlineQueue:
      *stage = DeadlineStage::kQueue;
      return true;
    case ErrorCode::kDeadlineBatch:
      *stage = DeadlineStage::kBatch;
      return true;
    default:
      return false;
  }
}

const char* DegradeModeName(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kNone:
      return "none";
    case DegradeMode::kIvf:
      return "ivf";
  }
  return "unknown";
}

bool DegradeModeFromName(std::string_view name, DegradeMode* mode) {
  if (name == "none") {
    *mode = DegradeMode::kNone;
  } else if (name == "ivf") {
    *mode = DegradeMode::kIvf;
  } else {
    return false;
  }
  return true;
}

ServeStatus StatusFromException(std::exception_ptr error) {
  ServeStatus status;
  try {
    std::rethrow_exception(error);
  } catch (const OverloadError& e) {
    status.code = ErrorCode::kOverload;
    status.detail = e.what();
    status.retry_after_us = e.retry_after_us();
  } catch (const ServeError& e) {
    status.code = e.code();
    status.detail = e.what();
  } catch (const std::invalid_argument& e) {
    status.code = ErrorCode::kBadRequest;
    status.detail = e.what();
  } catch (const std::exception& e) {
    status.code = ErrorCode::kInternal;
    status.detail = e.what();
  } catch (...) {
    status.code = ErrorCode::kInternal;
    status.detail = "unknown error";
  }
  return status;
}

namespace wire {
namespace {

// Splits on spaces/tabs (the only separators either grammar allows).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

// Strict all-digits unsigned parse (wire form only — the legacy form
// keeps its historical atoll semantics).
bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

ServeStatus BadRequest(std::string detail) {
  ServeStatus status;
  status.code = ErrorCode::kBadRequest;
  status.detail = std::move(detail);
  return status;
}

// The historical bslrec_serve grammar, token for token: `>>` for the
// user id, atoll for k tokens (partial parses accepted, last k wins),
// the literal "all" disabling seen-item filtering. The detail strings
// are the exact messages the CLI has always printed after the
// "bad request '<line>': " prefix.
ServeStatus ParseLegacyRequest(std::string_view line,
                               const ParseOptions& options,
                               ParsedRequest* out) {
  std::istringstream in{std::string(line)};
  long long user = -1;
  in >> user;
  if (!in || user < 0 || static_cast<uint64_t>(user) >= options.num_users) {
    return BadRequest(Format("user must be in [0, %u)", options.num_users));
  }
  out->topk.user = static_cast<uint32_t>(user);
  std::string tok;
  while (in >> tok) {
    if (tok == "all") {
      out->topk.filter_seen = false;
    } else {
      const long long k = std::atoll(tok.c_str());
      if (k <= 0 || k > static_cast<long long>(UINT32_MAX)) {
        return BadRequest(Format("k must be in [1, %u]", UINT32_MAX));
      }
      out->topk.k = static_cast<uint32_t>(k);
    }
  }
  return ServeStatus{};
}

// The strict wire grammar: TOPK <user> <k> then named options.
ServeStatus ParseWireRequest(std::span<const std::string_view> tokens,
                             const ParseOptions& options, ParsedRequest* out) {
  if (tokens.size() < 3) {
    return BadRequest("usage: TOPK <user> <k> [FILTER=seen|none] "
                      "[LANE=interactive|bulk] [DEADLINE_US=n] [ID=token]");
  }
  uint64_t user = 0;
  if (!ParseUint(tokens[1], &user) || user >= options.num_users) {
    return BadRequest(Format("user must be in [0, %u)", options.num_users));
  }
  out->topk.user = static_cast<uint32_t>(user);
  uint64_t k = 0;
  if (!ParseUint(tokens[2], &k) || k == 0 || k > UINT32_MAX) {
    return BadRequest(Format("k must be in [1, %u]", UINT32_MAX));
  }
  out->topk.k = static_cast<uint32_t>(k);
  for (size_t i = 3; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const size_t eq = tok.find('=');
    const std::string_view key =
        eq == std::string_view::npos ? tok : tok.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : tok.substr(eq + 1);
    if (key == "FILTER") {
      if (value == "seen") {
        out->topk.filter_seen = true;
      } else if (value == "none") {
        out->topk.filter_seen = false;
      } else {
        return BadRequest("FILTER must be seen or none");
      }
    } else if (key == "LANE") {
      if (value == "interactive") {
        out->topk.lane = RequestLane::kInteractive;
      } else if (value == "bulk") {
        out->topk.lane = RequestLane::kBulk;
      } else {
        return BadRequest("LANE must be interactive or bulk");
      }
    } else if (key == "DEADLINE_US") {
      uint64_t deadline = 0;
      if (!ParseUint(value, &deadline) || deadline > UINT32_MAX) {
        return BadRequest(
            Format("DEADLINE_US must be an integer in [0, %u]", UINT32_MAX));
      }
      out->topk.deadline_us = static_cast<uint32_t>(deadline);
    } else if (key == "ID") {
      if (value.empty() || value.size() > kMaxIdBytes) {
        return BadRequest(
            Format("ID must be 1..%zu bytes", kMaxIdBytes));
      }
      out->id = std::string(value);
    } else {
      return BadRequest("unknown option '" + std::string(tok) + "'");
    }
  }
  return ServeStatus{};
}

void AppendScoredItems(const TopKResponse& topk, const char* separator,
                       std::string* out) {
  for (size_t i = 0; i < topk.items.size(); ++i) {
    if (i > 0) out->append(separator);
    out->append(Format("%u:%.6f", topk.items[i], topk.scores[i]));
  }
}

std::string Sanitize(std::string_view detail) {
  std::string clean(detail);
  for (char& c : clean) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return clean;
}

}  // namespace

bool IsIgnorableLine(std::string_view line) {
  const size_t first = line.find_first_not_of(" \t\r");
  return first == std::string_view::npos || line[first] == '#';
}

ServeStatus ParseRequest(std::string_view line, const ParseOptions& options,
                         ParsedRequest* out) {
  *out = ParsedRequest{};
  out->topk.k = options.default_k;
  if (options.max_line_bytes > 0 && line.size() > options.max_line_bytes) {
    return BadRequest(
        Format("line exceeds %zu bytes", options.max_line_bytes));
  }
  // Pull any ID= token out first so even a failed parse can name the
  // request it answers.
  const std::vector<std::string_view> tokens = Tokenize(line);
  for (const std::string_view tok : tokens) {
    if (tok.size() > 3 && tok.rfind("ID=", 0) == 0 &&
        tok.size() - 3 <= kMaxIdBytes) {
      out->id = std::string(tok.substr(3));
    }
  }
  if (tokens.empty()) return BadRequest("empty request");
  if (tokens[0] == "TOPK") return ParseWireRequest(tokens, options, out);
  return ParseLegacyRequest(line, options, out);
}

std::string FormatResponse(std::string_view id, DegradeMode mode,
                           uint64_t snapshot_seq, const TopKResponse& topk) {
  std::string out = "OK ";
  out.append(id);
  out.append(" ");
  out.append(DegradeModeName(mode));
  out.append(Format(" seq=%" PRIu64, snapshot_seq));
  if (!topk.items.empty()) out.append(" ");
  AppendScoredItems(topk, " ", &out);
  return out;
}

std::string FormatError(std::string_view id, const ServeStatus& status) {
  std::string out = "ERR ";
  out.append(id);
  out.append(" ");
  DeadlineStage stage;
  if (status.code == ErrorCode::kOverload) {
    out.append(Format("OVERLOAD retry_after_us=%u", status.retry_after_us));
  } else if (DeadlineStageForCode(status.code, &stage)) {
    out.append("DEADLINE stage=");
    out.append(DeadlineStageName(stage));
  } else if (status.code == ErrorCode::kBadRequest) {
    out.append("BAD_REQUEST ");
    out.append(Sanitize(status.detail));
  } else {
    out.append("INTERNAL ");
    out.append(Sanitize(status.detail));
  }
  return out;
}

std::string FormatCliResponse(const TopKRequest& request,
                              const TopKResponse& topk) {
  std::string out = Format("user=%u k=%u items=", request.user, request.k);
  AppendScoredItems(topk, ",", &out);
  return out;
}

bool ParseResponse(std::string_view line, ParsedResponse* out) {
  *out = ParsedResponse{};
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.size() < 3) return false;
  out->id = std::string(tokens[1]);
  if (tokens[0] == "OK") {
    out->ok = true;
    if (!DegradeModeFromName(tokens[2], &out->degrade_mode)) return false;
    size_t i = 3;
    if (i < tokens.size() && tokens[i].rfind("seq=", 0) == 0) {
      uint64_t seq = 0;
      if (!ParseUint(tokens[i].substr(4), &seq)) return false;
      out->snapshot_seq = seq;
      ++i;
    }
    for (; i < tokens.size(); ++i) {
      const size_t colon = tokens[i].find(':');
      if (colon == std::string_view::npos) return false;
      uint64_t item = 0;
      if (!ParseUint(tokens[i].substr(0, colon), &item) || item > UINT32_MAX) {
        return false;
      }
      const std::string score_text(tokens[i].substr(colon + 1));
      char* end = nullptr;
      const float score = std::strtof(score_text.c_str(), &end);
      if (end == score_text.c_str() || *end != '\0') return false;
      out->topk.items.push_back(static_cast<uint32_t>(item));
      out->topk.scores.push_back(score);
    }
    return true;
  }
  if (tokens[0] != "ERR") return false;
  const std::string_view kind = tokens[2];
  const auto rest_detail = [&](size_t from) {
    std::string detail;
    for (size_t i = from; i < tokens.size(); ++i) {
      if (!detail.empty()) detail.append(" ");
      detail.append(tokens[i]);
    }
    return detail;
  };
  if (kind == "OVERLOAD") {
    out->status.code = ErrorCode::kOverload;
    if (tokens.size() < 4 ||
        tokens[3].rfind("retry_after_us=", 0) != 0) {
      return false;
    }
    uint64_t retry = 0;
    if (!ParseUint(tokens[3].substr(15), &retry) || retry > UINT32_MAX) {
      return false;
    }
    out->status.retry_after_us = static_cast<uint32_t>(retry);
    return true;
  }
  if (kind == "DEADLINE") {
    if (tokens.size() < 4 || tokens[3].rfind("stage=", 0) != 0) return false;
    const std::string_view stage = tokens[3].substr(6);
    if (stage == "admission") {
      out->status.code = ErrorCode::kDeadlineAdmission;
    } else if (stage == "queue") {
      out->status.code = ErrorCode::kDeadlineQueue;
    } else if (stage == "batch") {
      out->status.code = ErrorCode::kDeadlineBatch;
    } else {
      return false;
    }
    return true;
  }
  if (kind == "BAD_REQUEST") {
    out->status.code = ErrorCode::kBadRequest;
    out->status.detail = rest_detail(3);
    return true;
  }
  if (kind == "INTERNAL") {
    out->status.code = ErrorCode::kInternal;
    out->status.detail = rest_detail(3);
    return true;
  }
  return false;
}

}  // namespace wire
}  // namespace bslrec::serve
