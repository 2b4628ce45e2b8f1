// Shared scaffolding for the self-timed benches: the RANM_SMOKE switch,
// the interleaved min-of-rounds timer, and the BENCH_*.json report shape
// ({"bench", "smoke", "results": [...]}) live here once so every bench
// emits the same schema and a format tweak (a new top-level field, say)
// lands everywhere at once.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace ranm::benchutil {

/// True when RANM_SMOKE is set non-empty and not "0": CI smoke runs
/// shrink sweeps/repetitions but still exercise every path and emit the
/// full JSON schema.
inline bool smoke_mode() {
  const char* env = std::getenv("RANM_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Timing rounds per row (fewer when a row has fewer repetitions).
inline constexpr std::size_t kTimingRounds = 9;

/// Nanoseconds per sample of each arm; `arm(n)` runs n repetitions of
/// `samples_per_rep` samples. The `reps` repetitions are split into
/// kTimingRounds blocks, and the arms take turns block by block, so slow
/// drift (clock frequency, neighbouring load) hits every arm alike. Each
/// arm reports its fastest block: one block timed whole let a single
/// interruption move a row by 20-30% between runs of the same code. One
/// untimed repetition per arm warms up first.
inline std::vector<double> time_interleaved(
    std::size_t reps, std::size_t samples_per_rep,
    std::initializer_list<std::function<void(std::size_t)>> arms) {
  const std::size_t rounds =
      std::min(kTimingRounds, std::max<std::size_t>(reps, 1));
  const std::size_t block = std::max<std::size_t>(reps / rounds, 1);
  for (const auto& arm : arms) arm(1);
  std::vector<double> best(arms.size(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < rounds; ++r) {
    std::size_t k = 0;
    for (const auto& arm : arms) {
      const Timer timer;
      arm(block);
      best[k] = std::min(best[k], timer.seconds());
      ++k;
    }
  }
  for (double& b : best) {
    b = b * 1e9 / double(block) / double(samples_per_rep);
  }
  return best;
}

/// Writes the per-PR report: each entry of `rows` is one pre-rendered
/// JSON object. Failure to open the path is reported on stderr, not
/// fatal — the bench's table output already happened.
inline void write_json_report(const std::string& path,
                              const std::string& bench, bool smoke,
                              const std::vector<std::string>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(),
                 path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"" << bench << "\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    " << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace ranm::benchutil
