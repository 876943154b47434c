// perfbench_driver: runs one workload of the benchmark and writes its raw
// results (operation stamps, samples, checks, spans, host) as JSON.
//
//   perfbench_driver --workload ingest|query|train --seed N --seconds S
//                    --trace 0|1 --setups K --workdir DIR --out FILE
//
// run.py builds and invokes it, and turns the raw results into metrics.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "tensor/qgemm.h"

extern char** environ;

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--setups") {
      args->setups = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() && args->seconds > 0 &&
         args->setups >= 1;
}

void FingerprintHost(Report* report) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model, flags;
  while (std::getline(cpuinfo, line)) {
    if (model.empty() && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    } else if (flags.empty() && line.rfind("flags", 0) == 0) {
      flags = " " + line.substr(line.find(':') + 1) + " ";
    }
  }
  std::string isa;
  for (const char* f : {"avx2", "avx512f", "avx512_vnni", "avx_vnni"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      isa += isa.empty() ? f : std::string(",") + f;
    }
  }
  std::string omp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) == 0 || std::strncmp(*e, "GOMP_", 5) == 0) {
      omp += omp.empty() ? *e : std::string(" ") + *e;
    }
  }
  report->SetHost("cpu_model", model);
  report->SetHost("isa", isa);
  report->SetHost("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->SetHost("omp_env", omp.empty() ? "(unset)" : omp);
  report->SetHost("qgemm_backend", tensor::qgemm::BackendName(
                                       tensor::qgemm::ActiveBackend()));
  report->SetHost("compiler", PERFBENCH_COMPILER);
  report->SetHost("build_type", PERFBENCH_BUILD_TYPE);
}

/// CPU ms one thread takes for a fixed mix of integer, floating-point and
/// cache-missing work: the host's speed at the time of the run. A shared
/// host's speed moves (the CPU per train trajectory halved within an hour),
/// so the report prints it next to the CPU metrics.
double CalibrationMs() {
  static std::vector<uint32_t> chain;
  if (chain.empty()) {
    chain.resize(size_t{1} << 21);  // 8 MiB
    for (size_t i = 0; i < chain.size(); ++i) {
      chain[i] = static_cast<uint32_t>((i * 2654435761u + 12345u) &
                                       (chain.size() - 1));
    }
  }
  std::vector<float> a(1024, 1.0001f), b(1024, 0.9999f);
  const double t0 = ThreadCpuSeconds();
  uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 5'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 2654435761u;
  }
  float dot = 0.0f;
  for (int r = 0; r < 5'000; ++r) {
    for (size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
    a[static_cast<size_t>(r) & 1023] = dot * 1e-9f;
  }
  uint32_t p = 0;
  for (int i = 0; i < 500'000; ++i) p = chain[p] ^ static_cast<uint32_t>(i & 7);
  const double ms = (ThreadCpuSeconds() - t0) * 1e3;
  // Keep the loops' results alive.
  if ((acc ^ p) == 1 && dot < 0.0f) std::fprintf(stderr, "~");
  return ms;
}

/// Median of `n` calibration rounds.
double Calibrate(int n) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) ms.push_back(CalibrationMs());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload ingest|query|train --seed N "
                 "--seconds S --trace 0|1 --setups K --workdir DIR --out FILE\n",
                 argv[0]);
    return 2;
  }
  perfbench::Report report;
  perfbench::FingerprintHost(&report);
  const double calib_before = perfbench::Calibrate(5);
  int rc = 2;
  if (args.workload == "ingest") {
    rc = perfbench::RunIngest(args, &report);
  } else if (args.workload == "query") {
    rc = perfbench::RunQuery(args, &report);
  } else if (args.workload == "train") {
    rc = perfbench::RunTrain(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  report.SetValue("host.calib_ms",
                  (calib_before + perfbench::Calibrate(5)) / 2.0);
  report.SetValue("rss_peak_mb", perfbench::PeakRssMb());
  if (!report.Write(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return rc;
}
