// E5 — bound-engine comparison, two sweeps.
//
// Sweep 1 (domain_compare): box vs zonotope perturbation estimates across
// network depth (paper §III-B cites interval bound propagation [3],
// zonotopes [4], star sets [5]; its implementation uses boxes). Expected
// shape: zonotope bounds are tighter (ratio < 1) and the gap widens with
// depth, at higher runtime cost. Star sets are not implemented (LP solver
// out of scope — see DESIGN.md substitutions).
//
// Sweep 2 (backend_sweep): batched box propagation
// (PerturbationEstimator::estimate_batch, which sweeps contiguous
// neuron-major rows) against the scalar per-sample estimate() loop across
// batch size. Every run checks that the batched bounds contain the scalar
// bounds; only throughput differs.
//
// Prints tables and writes machine-readable JSON (BENCH_domains.json, or
// the path given as argv[1]) so the perf trajectory is tracked per-PR.
// RANM_SMOKE=1 shrinks the sweeps for CI.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/perturbation_estimator.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ranm {
namespace {

struct DomainMeasurement {
  std::size_t hidden_layers = 0;
  double box_width = 0.0;
  double zono_width = 0.0;
  double ratio = 0.0;
  double box_us_per_input = 0.0;
  double zono_us_per_input = 0.0;
};

struct BatchMeasurement {
  std::size_t batch_size = 0;
  std::size_t hidden_layers = 0;
  double us_per_input = 0.0;
  double scalar_us_per_input = 0.0;
  double speedup_vs_scalar = 0.0;
};

void write_json(const std::string& path, bool smoke,
                const std::vector<DomainMeasurement>& domains,
                const std::vector<BatchMeasurement>& batches) {
  std::vector<std::string> rows;
  rows.reserve(domains.size() + batches.size());
  for (const DomainMeasurement& m : domains) {
    std::ostringstream row;
    row << "{\"mode\": \"domain_compare\", \"hidden_layers\": "
        << m.hidden_layers << ", \"box_width\": " << m.box_width
        << ", \"zono_width\": " << m.zono_width
        << ", \"zono_box_ratio\": " << m.ratio
        << ", \"box_us_per_input\": " << m.box_us_per_input
        << ", \"zono_us_per_input\": " << m.zono_us_per_input << "}";
    rows.push_back(row.str());
  }
  for (const BatchMeasurement& m : batches) {
    std::ostringstream row;
    row << "{\"mode\": \"backend_sweep\", \"batch_size\": " << m.batch_size
        << ", \"hidden_layers\": " << m.hidden_layers
        << ", \"us_per_input\": " << m.us_per_input
        << ", \"scalar_us_per_input\": " << m.scalar_us_per_input
        << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar << "}";
    rows.push_back(row.str());
  }
  benchutil::write_json_report(path, "bench_domains", smoke, rows);
}

std::vector<DomainMeasurement> run_domain_compare(bool smoke) {
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 3, 4, 6};
  const std::size_t num_inputs = smoke ? 10 : 50;

  Rng rng(77);
  TextTable table("E5a: box vs zonotope perturbation estimates "
                  "(MLP width 32, Δ = 0.05, kp = 0)");
  table.set_header({"hidden layers", "box width", "zono width",
                    "zono/box ratio", "box us/input", "zono us/input"});

  std::vector<DomainMeasurement> results;
  for (const std::size_t depth : depths) {
    std::vector<std::size_t> dims{16};
    for (std::size_t i = 0; i < depth; ++i) dims.push_back(32);
    dims.push_back(8);
    Network net = make_mlp(dims, rng);
    const std::size_t k = net.num_layers();

    std::vector<Tensor> inputs;
    inputs.reserve(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      inputs.push_back(Tensor::random_uniform({16}, rng));
    }

    PerturbationEstimator box_pe(net, k,
                                 PerturbationSpec{0, 0.05F, BoundDomain::kBox});
    PerturbationEstimator zono_pe(
        net, k, PerturbationSpec{0, 0.05F, BoundDomain::kZonotope});

    DomainMeasurement m;
    m.hidden_layers = depth;
    Timer box_timer;
    for (const auto& v : inputs) m.box_width += box_pe.estimate(v).total_width();
    m.box_us_per_input = box_timer.millis() * 1000.0 / double(inputs.size());
    Timer zono_timer;
    for (const auto& v : inputs) {
      m.zono_width += zono_pe.estimate(v).total_width();
    }
    m.zono_us_per_input =
        zono_timer.millis() * 1000.0 / double(inputs.size());
    m.ratio = m.box_width > 0.0 ? m.zono_width / m.box_width : 0.0;
    m.box_width /= double(inputs.size());
    m.zono_width /= double(inputs.size());
    results.push_back(m);

    table.add_row({std::to_string(depth), TextTable::num(m.box_width, 3),
                   TextTable::num(m.zono_width, 3),
                   TextTable::num(m.ratio, 3),
                   TextTable::num(m.box_us_per_input, 1),
                   TextTable::num(m.zono_us_per_input, 1)});
  }
  table.print();
  return results;
}

/// Outward-only containment check of the batched bounds against the
/// scalar estimate of every column (the in-run guard behind the "bounds
/// are cross-checked per run" claim).
bool bounds_contain(const std::vector<IntervalVector>& scalar,
                    const BoxBatch& batched) {
  if (scalar.size() != batched.size()) return false;
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    if (scalar[i].size() != batched.dimension()) return false;
    for (std::size_t j = 0; j < scalar[i].size(); ++j) {
      if (batched.lo(j, i) > scalar[i][j].lo ||
          batched.hi(j, i) < scalar[i][j].hi) {
        return false;
      }
    }
  }
  return true;
}

/// Times one propagation path: `reps` calls of `fn`, reported in
/// microseconds per input. The checksum keeps the work observable.
template <typename Fn>
double time_us_per_input(std::size_t reps, std::size_t batch, Fn&& fn,
                         bool& sound) {
  Timer timer;
  double checksum = 0.0;
  for (std::size_t r = 0; r < reps; ++r) checksum += fn();
  const double us = timer.millis() * 1000.0 / double(reps * batch);
  if (checksum != checksum) {
    std::fprintf(stderr, "bench_domains: NaN checksum\n");
    sound = false;
  }
  return us;
}

std::vector<BatchMeasurement> run_backend_sweep(bool smoke, bool& sound) {
  // Wide-ish MLP so the affine kernels dominate, as in deployment.
  constexpr std::size_t kDepth = 4;
  constexpr std::size_t kWidth = 64;
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 16, 64, 256};

  Rng rng(78);
  std::vector<std::size_t> dims{16};
  for (std::size_t i = 0; i < kDepth; ++i) dims.push_back(kWidth);
  dims.push_back(8);
  Network net = make_mlp(dims, rng);
  const std::size_t k = net.num_layers();
  PerturbationSpec spec;
  spec.delta = 0.05F;
  const PerturbationEstimator pe(net, k, spec);

  TextTable table("E5b: batched vs scalar box propagation by batch size "
                  "(MLP width 64, depth 4, Δ = 0.05, kp = 0)");
  table.set_header(
      {"batch", "batched us/input", "scalar us/input", "speedup"});

  std::vector<BatchMeasurement> results;
  for (const std::size_t batch : batch_sizes) {
    std::vector<Tensor> inputs;
    inputs.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      inputs.push_back(Tensor::random_uniform({16}, rng));
    }
    // Enough repetitions that even the fast configurations time a
    // multi-millisecond region.
    const std::size_t reps =
        smoke ? 2 : std::max<std::size_t>(4, 4096 / batch);

    // Warm-up results, untimed, double as the containment check.
    std::vector<IntervalVector> scalar;
    scalar.reserve(batch);
    for (const Tensor& v : inputs) scalar.push_back(pe.estimate(v));
    if (!bounds_contain(scalar, pe.estimate_batch(inputs))) {
      std::fprintf(stderr,
                   "bench_domains: batched bounds tightened inward vs the "
                   "scalar estimate at batch %zu\n",
                   batch);
      sound = false;
    }

    BatchMeasurement m;
    m.batch_size = batch;
    m.hidden_layers = kDepth;
    m.us_per_input = time_us_per_input(
        reps, batch,
        [&] { return double(pe.estimate_batch(inputs).hi(0, 0)); }, sound);
    m.scalar_us_per_input = time_us_per_input(
        reps, batch,
        [&] {
          double sum = 0.0;
          for (const Tensor& v : inputs) sum += double(pe.estimate(v)[0].hi);
          return sum;
        },
        sound);
    m.speedup_vs_scalar =
        m.us_per_input > 0.0 ? m.scalar_us_per_input / m.us_per_input : 0.0;
    results.push_back(m);
    table.add_row({std::to_string(batch), TextTable::num(m.us_per_input, 2),
                   TextTable::num(m.scalar_us_per_input, 2),
                   TextTable::num(m.speedup_vs_scalar, 2)});
  }
  table.print();
  return results;
}

int run(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode();
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_domains.json";

  const std::vector<DomainMeasurement> domains = run_domain_compare(smoke);
  bool sound = true;
  const std::vector<BatchMeasurement> batches =
      run_backend_sweep(smoke, sound);
  if (!sound) {
    std::fprintf(stderr, "bench_domains: batched-vs-scalar check FAILED\n");
    return 1;
  }

  write_json(json_path, smoke, domains, batches);
  std::printf(
      "wrote %s\n"
      "\n[E5] expected shape: (a) zono/box ratio < 1 everywhere and "
      "shrinking with depth (zonotopes track affine correlations that "
      "boxes lose); zonotope runtime grows with generator count. "
      "(b) batched speedup over the scalar loop grows with batch size "
      "(contiguous neuron-major sweeps amortise across the batch "
      "lane).\n",
      json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ranm

int main(int argc, char** argv) { return ranm::run(argc, argv); }
