#include "fuzz/schedule.h"

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace rda::fuzz {
namespace {

const char* FaultName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLatentSector:
      return "latent";
    case FaultEvent::Kind::kTransientRead:
      return "tread";
    case FaultEvent::Kind::kTransientWrite:
      return "twrite";
    case FaultEvent::Kind::kBitFlip:
      return "flip";
    case FaultEvent::Kind::kTornWrite:
      return "torn";
    case FaultEvent::Kind::kDiskFailRebuild:
      return "fail";
    case FaultEvent::Kind::kDiskFailOnlineRebuild:
      return "failon";
    case FaultEvent::Kind::kArchive:
      return "archive";
    case FaultEvent::Kind::kTornTwin:
      return "torntwin";
  }
  return "?";
}

bool FaultKindFromName(const std::string& name, FaultEvent::Kind* out) {
  static const struct {
    const char* name;
    FaultEvent::Kind kind;
  } kTable[] = {
      {"latent", FaultEvent::Kind::kLatentSector},
      {"tread", FaultEvent::Kind::kTransientRead},
      {"twrite", FaultEvent::Kind::kTransientWrite},
      {"flip", FaultEvent::Kind::kBitFlip},
      {"torn", FaultEvent::Kind::kTornWrite},
      {"fail", FaultEvent::Kind::kDiskFailRebuild},
      {"failon", FaultEvent::Kind::kDiskFailOnlineRebuild},
      {"archive", FaultEvent::Kind::kArchive},
      {"torntwin", FaultEvent::Kind::kTornTwin},
  };
  for (const auto& entry : kTable) {
    if (name == entry.name) {
      *out = entry.kind;
      return true;
    }
  }
  return false;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseU32(const std::string& text, uint32_t* out) {
  uint64_t wide = 0;
  if (!ParseU64(text, &wide) || wide > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(wide);
  return true;
}

}  // namespace

std::string Schedule::ToString() const {
  std::ostringstream out;
  out << "rda-sched v1 seed=" << seed
      << " algo=" << (force ? "force" : "noforce") << ','
      << (rda ? "rda" : "norda") << ','
      << (mode == LoggingMode::kPageLogging ? "page" : "record")
      << " threads=" << threads << " steps=" << num_steps;
  if (!crash_points.empty()) {
    out << " crash=";
    for (size_t i = 0; i < crash_points.size(); ++i) {
      if (i > 0) {
        out << ',';
      }
      out << crash_points[i].step << ':' << crash_points[i].recovery_faults;
    }
  }
  if (!faults.empty()) {
    out << " fault=";
    for (size_t i = 0; i < faults.size(); ++i) {
      if (i > 0) {
        out << ',';
      }
      const FaultEvent& f = faults[i];
      out << FaultName(f.kind) << '@' << f.step;
      if (f.kind != FaultEvent::Kind::kArchive) {  // archive has no operand.
        out << ':' << f.a;
        if (f.b != 0) {
          out << ':' << f.b;
        }
      }
    }
  }
  return out.str();
}

Result<Schedule> Schedule::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  if (!(in >> token) || token != "rda-sched") {
    return Status::InvalidArgument("schedule must start with 'rda-sched'");
  }
  if (!(in >> token) || token != "v1") {
    return Status::InvalidArgument("unsupported schedule version");
  }
  Schedule schedule;
  schedule.num_steps = 0;  // 'steps=' is mandatory; the default would hide
                           // a missing field.
  bool have_steps = false;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("malformed field: " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      if (!ParseU64(value, &schedule.seed)) {
        return Status::InvalidArgument("bad seed: " + value);
      }
    } else if (key == "algo") {
      const std::vector<std::string> parts = SplitOn(value, ',');
      if (parts.size() != 3) {
        return Status::InvalidArgument("algo needs force,rda,mode: " + value);
      }
      if (parts[0] == "force") {
        schedule.force = true;
      } else if (parts[0] == "noforce") {
        schedule.force = false;
      } else {
        return Status::InvalidArgument("bad force class: " + parts[0]);
      }
      if (parts[1] == "rda") {
        schedule.rda = true;
      } else if (parts[1] == "norda") {
        schedule.rda = false;
      } else {
        return Status::InvalidArgument("bad rda class: " + parts[1]);
      }
      if (parts[2] == "page") {
        schedule.mode = LoggingMode::kPageLogging;
      } else if (parts[2] == "record") {
        schedule.mode = LoggingMode::kRecordLogging;
      } else {
        return Status::InvalidArgument("bad logging mode: " + parts[2]);
      }
    } else if (key == "threads") {
      if (!ParseU32(value, &schedule.threads) || schedule.threads == 0) {
        return Status::InvalidArgument("bad threads: " + value);
      }
    } else if (key == "steps") {
      if (!ParseU32(value, &schedule.num_steps)) {
        return Status::InvalidArgument("bad steps: " + value);
      }
      have_steps = true;
    } else if (key == "crash") {
      for (const std::string& entry : SplitOn(value, ',')) {
        const std::vector<std::string> parts = SplitOn(entry, ':');
        CrashPoint crash;
        if (parts.size() != 2 || !ParseU32(parts[0], &crash.step) ||
            !ParseU32(parts[1], &crash.recovery_faults)) {
          return Status::InvalidArgument("bad crash point: " + entry);
        }
        schedule.crash_points.push_back(crash);
      }
    } else if (key == "fault") {
      for (const std::string& entry : SplitOn(value, ',')) {
        const size_t at = entry.find('@');
        if (at == std::string::npos) {
          return Status::InvalidArgument("bad fault: " + entry);
        }
        FaultEvent fault;
        if (!FaultKindFromName(entry.substr(0, at), &fault.kind)) {
          return Status::InvalidArgument("unknown fault kind: " + entry);
        }
        const std::vector<std::string> parts =
            SplitOn(entry.substr(at + 1), ':');
        const bool archive = fault.kind == FaultEvent::Kind::kArchive;
        const bool shape_ok = archive ? parts.size() == 1
                                      : parts.size() == 2 || parts.size() == 3;
        if (!shape_ok || !ParseU32(parts[0], &fault.step) ||
            (!archive && !ParseU32(parts[1], &fault.a))) {
          return Status::InvalidArgument("bad fault operands: " + entry);
        }
        if (parts.size() == 3 && !ParseU32(parts[2], &fault.b)) {
          return Status::InvalidArgument("bad fault operands: " + entry);
        }
        schedule.faults.push_back(fault);
      }
    } else {
      return Status::InvalidArgument("unknown field: " + key);
    }
  }
  if (!have_steps) {
    return Status::InvalidArgument("schedule missing steps=");
  }
  return schedule;
}

}  // namespace rda::fuzz
