// Serving-layer tests: MonitorService answers must be bit-identical to
// the direct forward_batch -> contains_batch pipeline, in-process and
// through the Unix-socket / TCP frame transport; the server must survive
// malformed clients and drain gracefully. (Concurrency-heavy server tests
// — slow-loris, overload, drain-under-load — live in server_loop_test.cpp
// so the TSan job can target them.)
#include "serve/monitor_service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "compile/lower.hpp"
#include "core/monitor_builder.hpp"
#include "core/sharded_monitor.hpp"
#include "eval/experiment.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/fd_frame.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace ranm::serve {
namespace {

/// Short unique socket path: sockaddr_un caps at ~108 bytes, so build
/// trees are out — /tmp plus pid plus a tag stays well under.
std::string test_socket_path(const std::string& tag) {
  return "/tmp/ranm_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// A trained-free fixture: small MLP, random "training" inputs, one flat
/// and one sharded monitor over the layer-4 ReLU features (dim 32).
struct ServeFixture {
  Rng rng{2024};
  Network net = make_mlp({16, 64, 32, 8}, rng);
  std::size_t k = 4;
  std::vector<Tensor> train = make_inputs(64, 11);
  NeuronStats stats{32, true};

  ServeFixture() {
    MonitorBuilder builder(net, k);
    for (const Tensor& t : train) stats.add(builder.features(t));
  }

  [[nodiscard]] std::vector<Tensor> make_inputs(std::size_t n,
                                                std::uint64_t seed) {
    Rng r{seed};
    std::vector<Tensor> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Half near the training distribution, half far out, so both warn
      // verdicts occur.
      const float scale = i % 2 == 0 ? 1.0F : 4.0F;
      inputs.push_back(Tensor::random_uniform({16}, r, -scale, scale));
    }
    return inputs;
  }

  [[nodiscard]] std::unique_ptr<Monitor> build_monitor(
      std::size_t shards, MonitorFamily family = MonitorFamily::kInterval) {
    MonitorOptions opts;
    opts.family = family;
    opts.bits = 2;
    opts.shards = shards;
    std::unique_ptr<Monitor> monitor = make_monitor(opts, stats);
    MonitorBuilder builder(net, k);
    builder.build_standard(*monitor, train);
    return monitor;
  }

  /// Ground truth straight through the batch pipeline.
  [[nodiscard]] std::vector<std::uint8_t> direct_warns(
      const Monitor& monitor, std::span<const Tensor> inputs) {
    const FeatureBatch batch = net.forward_batch(k, inputs);
    std::vector<std::uint8_t> out(inputs.size());
    auto flags = std::make_unique<bool[]>(inputs.size());
    monitor.warn_batch(batch, {flags.get(), inputs.size()});
    for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = flags[i];
    return out;
  }

    /// The identity and shard table a service must report for `monitor`,
  /// computed fresh (describe() and shard_stats() on the spot).
  static void expect_published(const ServiceStats& stats,
                               const Monitor& monitor) {
    EXPECT_EQ(stats.monitor, monitor.describe());
    const auto* sharded = dynamic_cast<const ShardedMonitor*>(&monitor);
    if (sharded == nullptr) {
      EXPECT_TRUE(stats.shards.empty());
      return;
    }
    const auto fresh = sharded->shard_stats();
    ASSERT_EQ(stats.shards.size(), fresh.size());
    for (std::size_t s = 0; s < fresh.size(); ++s) {
      EXPECT_EQ(stats.shards[s].neurons, fresh[s].neurons) << s;
      EXPECT_EQ(stats.shards[s].bdd_nodes, fresh[s].bdd_nodes) << s;
      EXPECT_EQ(stats.shards[s].cubes_inserted, fresh[s].cubes_inserted)
          << s;
      EXPECT_EQ(stats.shards[s].patterns, fresh[s].patterns) << s;
    }
  }

  /// Fresh network clone for the service (MonitorService owns its net).
  [[nodiscard]] Network clone_net() {
    std::stringstream buf;
    save_network(buf, net);
    return load_network(buf);
  }
};

TEST(MonitorService, MatchesDirectPipelineRandomized) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{65}}) {
    const std::vector<Tensor> inputs = fx.make_inputs(n, 100 + n);
    EXPECT_EQ(service.query_warns(inputs),
              fx.direct_warns(*reference, inputs))
        << "batch size " << n;
  }
}

TEST(MonitorService, ShardedMatchesDirectPipeline) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  const std::vector<Tensor> inputs = fx.make_inputs(40, 77);
  EXPECT_EQ(service.query_warns(inputs),
            fx.direct_warns(*reference, inputs));
}

TEST(MonitorService, RejectsDimensionMismatch) {
  ServeFixture fx;
  // Layer 2 (dim 64) cannot serve a dim-32 monitor.
  EXPECT_THROW(MonitorService(fx.clone_net(), fx.build_monitor(1), 2),
               std::invalid_argument);
  EXPECT_THROW(MonitorService(fx.clone_net(), nullptr, fx.k),
               std::invalid_argument);
}

TEST(MonitorService, CountersAndShardStats) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::vector<Tensor> inputs = fx.make_inputs(20, 5);
  const std::vector<std::uint8_t> warns = fx.direct_warns(
      *fx.build_monitor(4), inputs);
  std::uint64_t expected_warnings = 0;
  for (const std::uint8_t w : warns) expected_warnings += w;

  (void)service.query_warns(inputs);
  (void)service.query_warns(std::span<const Tensor>{});
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 2U);
  EXPECT_EQ(stats.samples, 20U);
  EXPECT_EQ(stats.warnings, expected_warnings);
  EXPECT_EQ(stats.dimension, 32U);
  EXPECT_EQ(stats.layer, fx.k);
  EXPECT_EQ(stats.threads, 2U);
  EXPECT_EQ(stats.shard_strategy, "contiguous");
  ASSERT_EQ(stats.shards.size(), 4U);
  std::uint64_t neurons = 0;
  for (const ShardStatsWire& s : stats.shards) neurons += s.neurons;
  EXPECT_EQ(neurons, 32U);
}

TEST(MonitorService, CloneIsBitIdenticalWithFreshCounters) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::vector<Tensor> warmup = fx.make_inputs(8, 21);
  (void)service.query_warns(warmup);

  const std::unique_ptr<MonitorService> replica = service.clone();
  EXPECT_EQ(replica->queries(), 0U);   // counters reset, not inherited
  EXPECT_EQ(replica->samples(), 0U);
  const std::vector<Tensor> inputs = fx.make_inputs(32, 55);
  EXPECT_EQ(replica->query_warns(inputs), service.query_warns(inputs));
  EXPECT_EQ(replica->dimension(), service.dimension());
  EXPECT_EQ(replica->layer_k(), service.layer_k());
}

TEST(MonitorService, ServiceSurvivesFailedQuery) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  std::vector<Tensor> bad;
  bad.push_back(Tensor::vector({1.0F, 2.0F}));  // wrong input shape
  EXPECT_THROW((void)service.query_warns(bad), std::exception);
  const std::vector<Tensor> good = fx.make_inputs(8, 3);
  EXPECT_EQ(service.query_warns(good).size(), 8U);
}

TEST(MonitorService, FromFilesRoundTrip) {
  ServeFixture fx;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ranm_serve_files_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string net_path = (dir / "net.bin").string();
  const std::string mon_path = (dir / "mon.bin").string();
  save_network_file(net_path, fx.net);
  {
    std::ofstream out(mon_path, std::ios::binary);
    save_any_monitor(out, *fx.build_monitor(4));
  }

  MonitorService service =
      MonitorService::from_files(net_path, mon_path, fx.k, 2);
  const std::vector<Tensor> inputs = fx.make_inputs(24, 9);
  EXPECT_EQ(service.query_warns(inputs),
            fx.direct_warns(*fx.build_monitor(4), inputs));
  fs::remove_all(dir);
}

// ---- monitor lifecycle ----------------------------------------------------

TEST(MonitorServiceLifecycle, ObserveCountsNovelAndStages) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ASSERT_TRUE(service.adaptive());
  EXPECT_EQ(service.generation(), 1U);

  const std::vector<Tensor> live = fx.make_inputs(24, 91);
  const std::vector<std::uint8_t> warns =
      fx.direct_warns(*fx.build_monitor(1), live);
  std::uint64_t expected_novel = 0;
  for (const std::uint8_t w : warns) expected_novel += w;

  const ObserveReply reply = service.observe_batch(live);
  EXPECT_EQ(reply.accepted, 24U);
  EXPECT_EQ(reply.staged_total, 24U);
  EXPECT_EQ(reply.novel, expected_novel);
  EXPECT_EQ(service.staged_samples(), 24U);
  // Observing must not shift a single verdict before the swap.
  EXPECT_EQ(service.query_warns(live), warns);
}

TEST(MonitorServiceLifecycle, SwapMatchesOfflineRebuild) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::vector<Tensor> live = fx.make_inputs(32, 92);
  (void)service.observe_batch(live);

  const SwapReply swapped = service.swap();
  EXPECT_EQ(swapped.generation, 2U);
  EXPECT_EQ(swapped.staged_applied, 32U);
  EXPECT_EQ(service.generation(), 2U);
  EXPECT_EQ(service.staged_samples(), 0U);  // applied samples drained

  // Offline reference: the same base monitor folding the same features.
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  const std::vector<Tensor> probe = fx.make_inputs(60, 93);
  EXPECT_EQ(service.query_warns(probe),
            fx.direct_warns(*reference, probe));
  // The observed samples are inside the refreshed region by construction.
  for (const std::uint8_t w : service.query_warns(live)) EXPECT_EQ(w, 0);
}

TEST(MonitorServiceLifecycle, ShardedSwapTracksPerShardNovelty) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::vector<Tensor> live = fx.make_inputs(20, 94);
  const ObserveReply reply = service.observe_batch(live);

  const ServiceStats before = service.stats();
  ASSERT_EQ(before.shards.size(), 4U);
  // The stored description and shard table match a fresh computation
  // (describe() includes the host thread count the service applies).
  const std::unique_ptr<Monitor> original = fx.build_monitor(4);
  dynamic_cast<ShardedMonitor&>(*original).set_threads(2);
  ServeFixture::expect_published(before, *original);
  std::uint64_t shard_novel = 0;
  for (const ShardStatsWire& s : before.shards) shard_novel += s.novel;
  // A sample novel to the whole monitor is novel to >= 1 shard.
  EXPECT_GE(shard_novel, reply.novel);

  const SwapReply swapped = service.swap();
  EXPECT_EQ(swapped.generation, 2U);
  // The swap consumed the staged pool and reset the drift counters.
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.staged_samples, 0U);
  for (const ShardStatsWire& s : after.shards) EXPECT_EQ(s.novel, 0U);

  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  dynamic_cast<ShardedMonitor&>(*reference).set_threads(2);
  EXPECT_EQ(swapped.monitor, reference->describe());
  ServeFixture::expect_published(after, *reference);
  const std::vector<Tensor> probe = fx.make_inputs(40, 95);
  EXPECT_EQ(service.query_warns(probe),
            fx.direct_warns(*reference, probe));
}

TEST(MonitorServiceLifecycle, RollbackRestoresPreviousVerdicts) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::vector<Tensor> probe = fx.make_inputs(50, 96);
  const std::vector<std::uint8_t> before = service.query_warns(probe);

  const std::vector<Tensor> live = fx.make_inputs(16, 97);
  (void)service.observe_batch(live);
  const SwapReply swapped = service.swap();
  const std::unique_ptr<Monitor> refreshed = fx.build_monitor(1);
  refreshed->observe_batch(fx.net.forward_batch(fx.k, live));
  EXPECT_EQ(swapped.monitor, refreshed->describe());
  ServeFixture::expect_published(service.stats(), *refreshed);

  const RollbackReply rolled = service.rollback();
  EXPECT_EQ(rolled.generation, 1U);
  EXPECT_EQ(service.generation(), 1U);
  // Bit-identical to the pre-swap monitor, not merely similar.
  EXPECT_EQ(service.query_warns(probe), before);
  const std::unique_ptr<Monitor> original = fx.build_monitor(1);
  EXPECT_EQ(rolled.monitor, original->describe());
  ServeFixture::expect_published(service.stats(), *original);

  // Rolling forward again by explicit generation also works: the swapped
  // artifact stays in history.
  const RollbackReply forward = service.rollback(2);
  EXPECT_EQ(service.generation(), 2U);
  EXPECT_EQ(forward.monitor, refreshed->describe());
  ServeFixture::expect_published(service.stats(), *refreshed);
}

TEST(MonitorServiceLifecycle, RollbackErrors) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  // Generation 1 is live and nothing precedes it.
  EXPECT_THROW((void)service.rollback(), std::runtime_error);
  EXPECT_THROW((void)service.rollback(1ULL << 62), std::runtime_error);
  // The service still answers queries after the failed rollbacks.
  EXPECT_EQ(service.query_warns(fx.make_inputs(4, 98)).size(), 4U);
}

TEST(MonitorServiceLifecycle, CompiledMonitorIsFrozen) {
  ServeFixture fx;
  const std::unique_ptr<Monitor> source = fx.build_monitor(1);
  auto compiled = std::make_unique<compile::CompiledMonitor>(
      compile::compile_monitor(*source));
  MonitorService service(fx.clone_net(), std::move(compiled), fx.k);
  EXPECT_FALSE(service.adaptive());
  EXPECT_THROW((void)service.observe_batch(fx.make_inputs(4, 99)),
               std::invalid_argument);
  // Queries are unaffected: frozen means no adaptation, not no serving.
  const std::vector<Tensor> probe = fx.make_inputs(12, 99);
  EXPECT_EQ(service.query_warns(probe),
            fx.direct_warns(*source, probe));
}

TEST(MonitorServiceLifecycle, StagingCapRejectsOverflow) {
  FeatureBatch batch(2, 3);
  AdaptState state(2, "base-bytes", 0, /*max_staged=*/4);
  EXPECT_EQ(state.stage(batch, {}), 3U);
  EXPECT_THROW((void)state.stage(batch, {}), std::runtime_error);
  // A failed stage is atomic: the pool still holds exactly 3 samples and
  // a fitting batch still lands.
  EXPECT_EQ(state.telemetry().staged_samples, 3U);
  EXPECT_EQ(state.stage(FeatureBatch(2, 1), {}), 4U);
}

TEST(MonitorServiceLifecycle, ClonesShareOneGeneration) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::unique_ptr<MonitorService> replica = service.clone();

  (void)replica->observe_batch(fx.make_inputs(8, 90));
  EXPECT_EQ(service.staged_samples(), 8U);  // one shared staging pool

  // Swap through the parent, then adopt on the replica — the server's
  // exact sequence — and both serve the same generation and verdicts.
  const SwapReply swapped = service.swap();
  replica->adopt(service.checkout_generation(swapped.generation).second);
  EXPECT_EQ(replica->generation(), 2U);
  const std::vector<Tensor> probe = fx.make_inputs(30, 89);
  EXPECT_EQ(replica->query_warns(probe), service.query_warns(probe));
}

// ---- one shared snapshot under concurrency --------------------------------

// Four threads query one service while a fifth alternates swap() and
// rollback(): every worker shares the one snapshot, so every batch must
// be answered entirely by one generation — the base monitor or base ⊎
// live — in every served family. Frozen compiled monitors are
// query-only.
TEST(MonitorServiceConcurrency, SharedSnapshotUnderQueriesAndSwaps) {
  struct Case {
    const char* name;
    MonitorFamily family;
    std::size_t shards;
    std::size_t threads;
    bool compiled;
  };
  const Case cases[] = {
      {"interval", MonitorFamily::kInterval, 1, 1, false},
      {"onoff", MonitorFamily::kOnOff, 1, 1, false},
      {"sharded", MonitorFamily::kInterval, 4, 2, false},
      {"compiled", MonitorFamily::kInterval, 1, 1, true},
      {"compiled-sharded", MonitorFamily::kInterval, 4, 2, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ServeFixture fx;
    std::unique_ptr<Monitor> served = fx.build_monitor(c.shards, c.family);
    if (c.compiled) {
      served = std::make_unique<compile::CompiledMonitor>(
          compile::compile_monitor(*served));
    }
    MonitorService service(fx.clone_net(), std::move(served), fx.k,
                           c.threads);
    ASSERT_EQ(service.adaptive(), !c.compiled);

    // Probe = fresh inputs plus the live batch, which only base ⊎ live
    // accepts, so a blend of the two generations would show.
    const std::vector<Tensor> live = fx.make_inputs(24, 300);
    std::vector<Tensor> probe = fx.make_inputs(40, 301);
    probe.insert(probe.end(), live.begin(), live.end());
    const std::unique_ptr<Monitor> reference =
        fx.build_monitor(c.shards, c.family);
    const std::vector<std::uint8_t> old_warns =
        fx.direct_warns(*reference, probe);
    reference->observe_batch(fx.net.forward_batch(fx.k, live));
    const std::vector<std::uint8_t> new_warns =
        fx.direct_warns(*reference, probe);
    if (!c.compiled) {
      ASSERT_NE(old_warns, new_warns);
    }

    std::atomic<bool> mutating{true};
    std::atomic<int> blends{0};
    std::vector<std::thread> queriers;
    for (int t = 0; t < 4; ++t) {
      queriers.emplace_back([&, t] {
        std::vector<std::uint8_t> warns;
        // Batch sizes cover the single-sample paths, the scalar fallback
        // and the pooled shard fan-out (>= 32 samples).
        const std::size_t sizes[] = {1, 7, probe.size()};
        for (int round = 0; round < 30 || mutating.load(); ++round) {
          const std::size_t n = sizes[std::size_t(round + t) % 3];
          service.query_warns_into({probe.data(), n}, warns);
          const auto matches = [&](const std::vector<std::uint8_t>& ref) {
            return std::equal(warns.begin(), warns.end(), ref.begin());
          };
          if (warns.size() != n || (!matches(old_warns) &&
                                    !matches(new_warns))) {
            blends.fetch_add(1);
          }
        }
      });
    }
    if (!c.compiled) {
      for (int round = 0; round < 4; ++round) {
        (void)service.observe_batch(live);
        EXPECT_EQ(service.swap().staged_applied, live.size());
        EXPECT_EQ(service.rollback(1).generation, 1U);
      }
    }
    mutating.store(false);
    for (std::thread& t : queriers) t.join();
    EXPECT_EQ(blends.load(), 0);
    EXPECT_EQ(service.query_warns(probe), old_warns);
  }
}

// ---- socket transport -----------------------------------------------------

/// Runs a Server on a background thread for one test.
struct ServerHarness {
  Server server;
  std::thread thread;

  ServerHarness(MonitorService& svc, ServerConfig config)
      : server(svc, std::move(config)) {
    thread = std::thread([this] { server.run(); });
  }

  static ServerConfig unix_config(const std::string& tag,
                                  std::size_t workers = 1) {
    ServerConfig config;
    config.unix_path = test_socket_path(tag);
    config.workers = workers;
    return config;
  }

  ~ServerHarness() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
};

TEST(Server, EndToEndBitIdenticalToDirect) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  ServerHarness harness(service, ServerHarness::unix_config("e2e"));

  ServeClient client(harness.server.unix_path());
  // Stream a dataset through the daemon in minibatches; every verdict
  // must match the direct pipeline bit for bit.
  const std::vector<Tensor> dataset = fx.make_inputs(100, 42);
  const std::vector<std::uint8_t> expected =
      fx.direct_warns(*reference, dataset);
  std::vector<std::uint8_t> served;
  const std::size_t batch = 17;  // deliberately not a divisor of 100
  for (std::size_t i = 0; i < dataset.size(); i += batch) {
    const std::size_t n = std::min(batch, dataset.size() - i);
    const auto warns = client.query_warns({dataset.data() + i, n});
    served.insert(served.end(), warns.begin(), warns.end());
  }
  EXPECT_EQ(served, expected);

  const ServiceStats stats = client.stats();
  EXPECT_EQ(stats.samples, 100U);
  EXPECT_EQ(stats.shards.size(), 4U);
}

TEST(Server, TcpEndToEndBitIdenticalToDirect) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::unique_ptr<Monitor> reference = fx.build_monitor(1);
  ServerConfig config;
  config.tcp = true;  // port 0: kernel-assigned, no collisions in CI
  ServerHarness harness(service, config);
  ASSERT_NE(harness.server.tcp_port(), 0);

  ServeClient client("127.0.0.1", harness.server.tcp_port());
  const std::vector<Tensor> dataset = fx.make_inputs(50, 43);
  EXPECT_EQ(client.query_warns(dataset),
            fx.direct_warns(*reference, dataset));
}

TEST(Server, ShutdownFrameDrainsServer) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  Server server(service, ServerHarness::unix_config("shutdown"));
  std::thread thread([&server] { server.run(); });
  {
    ServeClient client(server.unix_path());
    client.shutdown_server();
  }
  thread.join();  // returns only if the shutdown frame drained run()
  EXPECT_EQ(server.connections_served(), 1U);
}

TEST(Server, StopUnblocksIdleServer) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  Server server(service, ServerHarness::unix_config("stop"));
  std::thread thread([&server] { server.run(); });
  server.stop();
  thread.join();
}

TEST(Server, NeedsAtLeastOneListener) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  EXPECT_THROW(Server(service, ServerConfig{}), std::invalid_argument);
}

TEST(Server, QueryErrorKeepsConnectionUsable) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("qerr"));

  ServeClient client(harness.server.unix_path());
  std::vector<Tensor> bad;
  bad.push_back(Tensor::vector({1.0F}));  // wrong input shape
  EXPECT_THROW((void)client.query_warns(bad), std::runtime_error);
  // Payload-level failures leave the stream synced: same connection, next
  // query answers normally.
  const std::vector<Tensor> good = fx.make_inputs(8, 8);
  EXPECT_EQ(client.query_warns(good).size(), 8U);
}

TEST(Server, RefusesPathAnotherDaemonIsServing) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("inuse"));
  // A second server must not silently steal the live socket.
  EXPECT_THROW(Server(service, ServerHarness::unix_config("inuse")),
               std::runtime_error);
  // The first daemon is unaffected by the refused takeover.
  ServeClient client(harness.server.unix_path());
  EXPECT_EQ(client.query_warns(fx.make_inputs(4, 2)).size(), 4U);
}

TEST(Server, ReplacesStaleSocketFile) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  const std::string path = test_socket_path("stale");
  {
    // Leftover file with no listener behind it (crashed daemon).
    std::ofstream stale(path);
  }
  ServerHarness harness(service, ServerHarness::unix_config("stale"));
  ServeClient client(path);
  EXPECT_EQ(client.query_warns(fx.make_inputs(4, 3)).size(), 4U);
}

TEST(Server, MalformedFrameGetsErrorAndNextConnectionServes) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service, ServerHarness::unix_config("garbage"));

  // Raw client speaking garbage: 16 bytes that are not a valid header.
  {
    const int fd = connect_unix(harness.server.unix_path());
    const char garbage[kFrameHeaderBytes] = "not a frame!!!!";
    ASSERT_EQ(::write(fd, garbage, sizeof garbage),
              ssize_t(sizeof garbage));
    // The server answers with an error frame, then closes.
    Frame reply;
    ASSERT_EQ(read_frame_fd(fd, reply), FdReadStatus::kFrame);
    EXPECT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(read_frame_fd(fd, reply), FdReadStatus::kEof);
    ::close(fd);
  }

  // The daemon is still alive for well-formed clients.
  ServeClient client(harness.server.unix_path());
  EXPECT_EQ(client.query_warns(fx.make_inputs(4, 1)).size(), 4U);
}

TEST(Server, StatsReportPerWorkerAndAggregate) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
  ServerHarness harness(service,
                        ServerHarness::unix_config("wstats", 2));
  ASSERT_EQ(harness.server.worker_count(), 2U);

  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> inputs = fx.make_inputs(10, 4);
  for (int i = 0; i < 5; ++i) (void)client.query_warns(inputs);

  const ServiceStats stats = client.stats();
  ASSERT_EQ(stats.workers.size(), 2U);
  std::uint64_t queries = 0, samples = 0, warnings = 0;
  for (const WorkerCountersWire& w : stats.workers) {
    queries += w.queries;
    samples += w.samples;
    warnings += w.warnings;
  }
  // Aggregate is exactly the sum of the per-worker counters.
  EXPECT_EQ(stats.queries, queries);
  EXPECT_EQ(stats.samples, samples);
  EXPECT_EQ(stats.warnings, warnings);
  EXPECT_EQ(stats.queries, 5U);
  EXPECT_EQ(stats.samples, 50U);
  EXPECT_EQ(stats.queue_capacity, 256U);
  EXPECT_EQ(stats.overloaded, 0U);
}

TEST(Server, ObserveSwapRollbackOverTheWire) {
  ServeFixture fx;
  MonitorService service(fx.clone_net(), fx.build_monitor(4), fx.k, 2);
  // Two worker replicas: a swap must publish to both.
  ServerHarness harness(service,
                        ServerHarness::unix_config("lifecycle", 2));

  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> probe = fx.make_inputs(40, 70);
  const std::vector<std::uint8_t> before = client.query_warns(probe);

  const std::vector<Tensor> live = fx.make_inputs(24, 71);
  const ObserveReply observed = client.observe(live);
  EXPECT_EQ(observed.accepted, 24U);
  EXPECT_EQ(observed.staged_total, 24U);

  const SwapReply swapped = client.swap();
  EXPECT_EQ(swapped.generation, 2U);
  EXPECT_EQ(swapped.staged_applied, 24U);

  // Both replicas serve the refreshed generation: the offline-rebuilt
  // reference matches over many queries (round-robin hits each worker).
  const std::unique_ptr<Monitor> reference = fx.build_monitor(4);
  reference->observe_batch(fx.net.forward_batch(fx.k, live));
  const std::vector<std::uint8_t> expected =
      fx.direct_warns(*reference, probe);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.query_warns(probe), expected) << i;
  }

  ServiceStats stats = client.stats();
  EXPECT_EQ(stats.generation, 2U);
  EXPECT_EQ(stats.swaps, 1U);
  EXPECT_EQ(stats.staged_samples, 0U);
  EXPECT_GT(stats.rolling_samples, 0U);

  const RollbackReply rolled = client.rollback();
  EXPECT_EQ(rolled.generation, 1U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.query_warns(probe), before) << i;
  }
  stats = client.stats();
  EXPECT_EQ(stats.generation, 1U);
  EXPECT_EQ(stats.rollbacks, 1U);
}

TEST(Server, CompiledObserveAnswersErrorAndServesOn) {
  ServeFixture fx;
  const std::unique_ptr<Monitor> source = fx.build_monitor(1);
  auto compiled = std::make_unique<compile::CompiledMonitor>(
      compile::compile_monitor(*source));
  MonitorService service(fx.clone_net(), std::move(compiled), fx.k);
  // The satellite bug: with workers, CompiledMonitor::observe's error
  // used to escape the worker thread and take the daemon down. It must
  // come back as a structured kError on the same connection instead.
  ServerHarness harness(service, ServerHarness::unix_config("frozen", 2));

  ServeClient client(harness.server.unix_path());
  const std::vector<Tensor> live = fx.make_inputs(8, 72);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)client.observe(live), std::runtime_error) << i;
  }
  // Same connection, same workers: queries still answer, and a second
  // connection is accepted — the event loop and both workers survived.
  EXPECT_EQ(client.query_warns(live),
            fx.direct_warns(*source, live));
  ServeClient second(harness.server.unix_path());
  EXPECT_EQ(second.query_warns(live).size(), 8U);
  EXPECT_THROW((void)second.rollback(), std::runtime_error);
  EXPECT_EQ(second.stats().generation, 0U);  // adaptation disabled
}

TEST(Server, SwapPersistsGenerationsAcrossRestart) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ranm_serve_gens_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  ServeFixture fx;
  const std::vector<Tensor> probe = fx.make_inputs(40, 73);
  std::vector<std::uint8_t> swapped_verdicts;
  {
    MonitorService service(fx.clone_net(), fx.build_monitor(1), fx.k);
    EXPECT_EQ(service.set_snapshot_store(
                  std::make_unique<SnapshotStore>(dir.string(), 4)),
              0U);  // fresh store: nothing resumed
    ServerHarness harness(service, ServerHarness::unix_config("gens"));
    ServeClient client(harness.server.unix_path());
    (void)client.observe(fx.make_inputs(16, 74));
    EXPECT_EQ(client.swap().generation, 2U);
    swapped_verdicts = client.query_warns(probe);
  }

  // "Restart": a fresh service over the original artifact resumes the
  // newest persisted generation from the store.
  MonitorService restarted(fx.clone_net(), fx.build_monitor(1), fx.k);
  EXPECT_EQ(restarted.set_snapshot_store(
                std::make_unique<SnapshotStore>(dir.string(), 4)),
            2U);
  EXPECT_EQ(restarted.generation(), 2U);
  EXPECT_EQ(restarted.query_warns(probe), swapped_verdicts);
  // And the persisted history still supports a rollback to generation 1.
  EXPECT_EQ(restarted.rollback().generation, 1U);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ranm::serve
