#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/experiment.hpp"

namespace lyra::bench {

inline bool quick_mode() {
  const char* quick = std::getenv("LYRA_BENCH_QUICK");
  return quick != nullptr && quick[0] == '1';
}

/// What the C++ runtime believes the host offers (0 = unknown).
inline unsigned hw_concurrency() { return std::thread::hardware_concurrency(); }

/// Online CPUs per the OS (what `nproc` prints); 0 if unavailable. Can
/// differ from hw_concurrency() in containers with restricted cpusets.
inline unsigned host_nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 0;
}

/// Node counts of the paper's evaluation (§VI-C).
inline std::vector<std::size_t> node_counts() {
  // LYRA_BENCH_QUICK=1 caps the sweep at 31 nodes (CI-friendly). These are
  // the per-figure counts; the scaling sweep itself goes further —
  // bench_fig5_scaling drives n = 100..1000 with aggregated client pools.
  if (quick_mode()) {
    return {5, 10, 16, 31};
  }
  return {5, 10, 16, 31, 61, 100};
}

// ---------------------------------------------------------------------------
// Peak-RSS measurement (memory-flatness benches)
// ---------------------------------------------------------------------------

/// Process peak resident set (VmHWM) in bytes; 0 where /proc is absent.
inline std::uint64_t peak_rss_bytes() {
#ifdef __linux__
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB",
                      reinterpret_cast<unsigned long long*>(&kb)) == 1) {
        break;
      }
    }
    std::fclose(f);
    return kb * 1024;
  }
#endif
  return 0;
}

/// Resets the VmHWM high-water mark so successive runs in one process each
/// measure their own peak (writing "5" to clear_refs; needs a writable
/// /proc, silently a no-op elsewhere — peaks then only ratchet upward,
/// which still upper-bounds every run).
inline void reset_peak_rss() {
#ifdef __linux__
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
#endif
}

/// The safety verdict every run_experiment bench prints on each row
/// (EXPERIMENTS.md, "Safety checks"): prefix-consistent ledgers and no
/// late accepts.
inline const char* safety(const harness::RunResult& r) {
  return r.prefix_consistent && r.late_accepts == 0 ? "ok" : "VIOLATED";
}

inline void print_header(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
  std::fflush(stdout);
}

inline void write_csv(const std::string& path, const std::string& content) {
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    std::printf("[csv written to %s]\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Machine-readable output (tools/bench_compare.py consumes this)
// ---------------------------------------------------------------------------

/// One benchmark measurement: a named scenario plus the engine-side and
/// protocol-side numbers of a run.
struct BenchEntry {
  std::string name;    // scenario, e.g. "lyra_n100"
  std::string params;  // human-readable knobs, e.g. "n=100 clients=2600"
  std::uint64_t seed = 0;
  std::uint64_t events = 0;      // events executed by the engine
  double events_per_sec = 0.0;   // events / host wall-clock seconds
  double host_seconds = 0.0;     // wall-clock time of the event loop
  double sim_seconds = 0.0;      // simulated time covered
  double throughput_tps = 0.0;   // committed tx/s (sanity anchor)
  // Host context the run was measured on: host-time numbers are only
  // comparable against a baseline from the same kind of box.
  unsigned hw_concurrency = 0;   // std::thread::hardware_concurrency()
  unsigned host_nproc = 0;       // online CPUs per the OS
  /// Benchmark-specific metrics (e.g. the load sweep's offered_tps,
  /// extracted_value). Serialized as additional keys only when non-empty,
  /// so benches that never touch it produce byte-identical JSON.
  std::vector<std::pair<std::string, double>> extra;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Serializes one labelled run. The file holds a top-level "runs" array so
/// bench_compare.py --merge can accumulate a before/after trajectory in a
/// single checked-in file (BENCH_sim.json at the repo root).
inline void write_bench_json(const std::string& path,
                             const std::string& benchmark,
                             const std::string& label,
                             const std::vector<BenchEntry>& entries) {
  std::string j = "{\n  \"benchmark\": \"" + json_escape(benchmark) +
                  "\",\n  \"runs\": [\n    {\n      \"label\": \"" +
                  json_escape(label) + "\",\n      \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    j += "        {\"name\": \"" + json_escape(e.name) + "\", \"params\": \"" +
         json_escape(e.params) +
         "\", \"seed\": " + std::to_string(e.seed) +
         ", \"events\": " + std::to_string(e.events) +
         ", \"events_per_sec\": " + json_num(e.events_per_sec) +
         ", \"host_seconds\": " + json_num(e.host_seconds) +
         ", \"sim_seconds\": " + json_num(e.sim_seconds) +
         ", \"throughput_tps\": " + json_num(e.throughput_tps) +
         ", \"hw_concurrency\": " + std::to_string(e.hw_concurrency) +
         ", \"host_nproc\": " + std::to_string(e.host_nproc);
    for (const auto& [key, v] : e.extra) {
      j += ", \"" + json_escape(key) + "\": " + json_num(v);
    }
    j += "}";
    j += (i + 1 < entries.size()) ? ",\n" : "\n";
  }
  j += "      ]\n    }\n  ]\n}\n";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("[json written to %s]\n", path.c_str());
  } else {
    std::fprintf(stderr, "[failed to open %s for writing]\n", path.c_str());
  }
}

}  // namespace lyra::bench
