// rdabench: runs one workload against the rda::Database facade and prints
// its metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Usually driven through run.py, which builds this binary.
//
//   rdabench --workload force_uniform --seed 1 --seconds 10 --trace 0
//   rdabench --workload crash_restart --seed 1 --seconds 1 --trace 0 --tiny
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<rdabench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintTable(const char* title, const std::vector<rdabench::Metric>& metrics) {
  std::printf("%s\n", title);
  std::string layer;
  for (const rdabench::Metric& m : metrics) {
    const std::string prefix = m.name.substr(0, m.name.find('.'));
    if (prefix != layer && m.name.find('.') != std::string::npos) {
      layer = prefix;
      std::printf("  [%s]\n", layer.c_str());
    }
    std::printf("    %-40s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: rdabench --workload force_uniform|noforce_skewed|"
               "crash_restart --seed N --seconds S --trace 0|1 [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  rdabench::RunConfig config;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) != "0";
    } else {
      return Usage();
    }
  }
  rdabench::WorkloadSpec spec;
  if (!rdabench::FindWorkload(workload, tiny, &spec) || config.seconds <= 0) {
    return Usage();
  }

  const rdabench::RunResult result = rdabench::RunWorkload(spec, config);

  std::printf("rdabench workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, tiny ? 1 : 0);
  std::printf("host {\"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, "
              "\"build\": %s}\n",
              sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
              JsonString(RDABENCH_COMPILER).c_str(),
              JsonString(RDABENCH_BUILD_TYPE).c_str());
  std::printf("inputs_digest=%016llx epochs=%llu latency_samples=%llu\n",
              static_cast<unsigned long long>(result.inputs_digest),
              static_cast<unsigned long long>(result.epochs),
              static_cast<unsigned long long>(result.latency_samples));
  PrintTable("end-to-end:", result.end_to_end);
  // The high-water resident set also counts freed memory the allocator
  // keeps, so it is printed for reference and rss_mb is the metric.
  std::printf("peak_rss_mb=%.1f\n", rdabench::PeakRssMb());
  if (config.trace) {
    PrintTable("per-layer (traced run):", result.per_layer);
  }
  for (const std::string& error : result.errors) {
    std::printf("error: %s\n", error.c_str());
  }
  std::printf("error_rate=%s (%llu failed / %llu attempted)\n",
              JsonNumber(result.attempted == 0
                             ? 1.0
                             : double(result.failed) / double(result.attempted))
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(config.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  return 0;
}
