// Shared pieces of the ranm load generator: run configuration, sample
// statistics, operation accounting, the result report, client-side span
// tracing, a wire client with deadlines, and the `ranm_serve` child
// process with its /proc readings.
//
// Everything here lives in the benchmark: it times calls into ranm's
// public API from the outside and instruments nothing inside src/.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- run configuration ----------------------------------------------------

/// Traffic mix of a run (the benchmark's workloads).
enum class Mix {
  kNominal,  // mostly in-distribution frames; observes of known inputs
  kDrift,    // mostly out-of-distribution frames; observes of novel inputs
};

struct RunConfig {
  Mix mix = Mix::kNominal;
  std::uint64_t seed = 1;
  double seconds = 45.0;  // measured time, split across the phases
  bool trace = false;
  std::string serve_bin;  // path of the ranm_serve executable
};

/// Measured seconds of each phase, as shares of RunConfig::seconds.
struct PhaseBudget {
  double frames_open = 0.0;
  double frames_saturation = 0.0;
  double robust_build = 0.0;
  double adapt_swap = 0.0;
};
[[nodiscard]] PhaseBudget phase_budget(double seconds);

// ---- statistics -----------------------------------------------------------

/// One nearest-rank percentile of a sample. `supported` holds when at
/// least kMinBeyond samples lie strictly above the reported rank, the
/// least evidence the benchmark accepts for a percentile.
struct Quantile {
  static constexpr std::size_t kMinBeyond = 10;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported = false;
};
[[nodiscard]] Quantile quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> values);

/// A figure computed per time window of a phase, then summarised by its
/// median across windows, so that a stall of the shared machine moves one
/// window instead of the whole run.
struct WindowedFigure {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t windows = 0;      // windows that supported the figure
  std::size_t of_windows = 0;   // windows in the phase
  std::size_t samples = 0;      // samples over all windows
};
/// Percentile `q` per window of (window index, value) samples; windows
/// whose sample cannot support `q` are left out.
[[nodiscard]] WindowedFigure windowed_quantile(
    const std::vector<std::vector<double>>& per_window, double q);
/// Median across windows of precomputed per-window values.
[[nodiscard]] WindowedFigure windowed_values(const std::vector<double>& values,
                                             std::size_t samples);

// ---- operation accounting -------------------------------------------------

/// Outcome of one request over the wire.
enum class Outcome { kOk, kError, kOverloaded, kTimeout };

/// Operations of one phase: every attempt ends as a success or as exactly
/// one kind of failure.
struct PhaseCounts {
  std::string phase;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t errors = 0;      // kError replies and transport failures
  std::uint64_t overloaded = 0;  // kOverloaded replies
  std::uint64_t timeouts = 0;    // no reply within the client deadline
  std::uint64_t mismatches = 0;  // a reply that differs from the reference

  [[nodiscard]] std::uint64_t failed() const {
    return errors + overloaded + timeouts + mismatches;
  }
  /// Counts one attempt; a kOk reply succeeds when `correct`, else it is a
  /// mismatch. Returns whether the attempt succeeded.
  bool record(Outcome outcome, bool correct);
  void merge(const PhaseCounts& other);
};

// ---- result report --------------------------------------------------------

/// Collects metrics, phase counts and correctness checks; prints a human
/// readable report followed by the one-line JSON result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Reports the median across windows; fails a check when fewer than
  /// half of the windows could support the figure.
  void windowed_metric(const std::string& name, const WindowedFigure& figure,
                       const std::string& unit);
  /// A figure printed in the report but kept out of the JSON result.
  void info(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  /// info() of a median across windows.
  void info_windowed(const std::string& name, const WindowedFigure& figure,
                     const std::string& unit);
  /// info() of a percentile, or a note that the sample cannot support it.
  void info_quantile(const std::string& name,
                     const std::vector<double>& samples, double q,
                     const std::string& unit);
  void check(const std::string& what, bool ok);
  void phase(const PhaseCounts& counts);
  /// A free-form line of the human-readable report.
  void note(const std::string& line);

  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }
  /// Prints the report and the JSON line; returns the exit status.
  [[nodiscard]] int finish() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;
  std::vector<PhaseCounts> phases_;
  std::vector<std::string> notes_;
  std::size_t failed_checks_ = 0;
};

// ---- tracing --------------------------------------------------------------

/// One timed call into a ranm module, recorded by the benchmark.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0: a root span
  std::uint64_t request = 0;  // shared by the spans of one request
};

/// Spans of one thread, kept in memory until the run ends. A null log
/// turns every ScopedSpan on it into a no-op: that is tracing off.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t thread_index) : next_id_(thread_index << 40) {}
  [[nodiscard]] std::size_t open(const char* name, std::uint64_t request);
  void close(std::size_t index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open spans, innermost last
  std::uint64_t next_id_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request = 0)
      : log_(log), index_(log ? log->open(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  // duration minus the time child spans cover
};

/// Owns the per-thread logs of a traced run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// A fresh log for one thread; null when tracing is off.
  [[nodiscard]] SpanLog* new_log();
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  [[nodiscard]] std::size_t span_count() const;
  /// Writes every span as one JSON array (Chrome trace-event format).
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---- wire client ----------------------------------------------------------

/// Minimal client of the frame protocol (serve/protocol.hpp) over a Unix
/// socket, with a per-request deadline so a stalled daemon shows as a
/// timeout instead of a hang. One request in flight at a time.
class WireClient {
 public:
  explicit WireClient(const std::string& socket_path);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends `request` with `payload` and waits for the reply frame.
  [[nodiscard]] Outcome round_trip(ranm::serve::FrameType request,
                                   std::string_view payload,
                                   ranm::serve::Frame& reply,
                                   double timeout_s);
  /// kQuery round trip; on kOk `warns` holds one 0/1 byte per input.
  [[nodiscard]] Outcome query(std::span<const ranm::Tensor> inputs,
                              std::vector<std::uint8_t>& warns,
                              double timeout_s);

  [[nodiscard]] bool alive() const { return fd_ >= 0; }

 private:
  [[nodiscard]] Outcome send(ranm::serve::FrameType request,
                             std::string_view payload);
  [[nodiscard]] Outcome receive(ranm::serve::Frame& reply, double timeout_s);
  [[nodiscard]] bool read_exact(char* out, std::size_t n,
                                Clock::time_point deadline);
  void close_fd();

  int fd_ = -1;
  std::string scratch_;
  ranm::serve::Frame reply_;
};

// ---- the daemon under test ------------------------------------------------

/// Per-thread CPU time of a process, from /proc/<pid>/task/*/stat.
struct ThreadCpu {
  pid_t tid = 0;
  double cpu_s = 0.0;  // utime + stime
};

/// CPU time of a process: the whole process from /proc/<pid>/stat, which
/// includes threads that have exited, and each live thread.
struct DaemonCpu {
  double process_s = 0.0;
  std::vector<ThreadCpu> threads;
};

/// A `ranm_serve` child process serving one Unix socket. The destructor
/// stops it (shutdown frame, then signals) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& serve_bin, const std::string& net_path,
         const std::string& monitor_path, std::size_t layer,
         std::size_t workers, const std::string& socket_path,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  /// Waits until the daemon accepts connections; throws when it exits
  /// or does not come up within `timeout_s`.
  void wait_ready(double timeout_s) const;
  /// Graceful stop; returns the exit status (or -1 when it had to be
  /// killed).
  int stop();

  /// Peak resident set (VmHWM) in bytes.
  [[nodiscard]] double peak_rss_bytes() const;
  [[nodiscard]] DaemonCpu cpu() const;

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// Busy fractions of the daemon's threads between two /proc readings:
/// the event loop is the main thread; workers are the other threads seen
/// in both readings (a swap's short-lived rebuild thread is not one).
struct DaemonBusy {
  double loop = 0.0;
  double worker_mean = 0.0;
  std::size_t workers = 0;
  double cpu_s = 0.0;  // CPU seconds of the whole daemon, swaps included
  double wall_s = 0.0;

  /// Folds in a later reading, weighting the fractions by wall time.
  void merge(const DaemonBusy& other);
};
[[nodiscard]] DaemonBusy busy_between(pid_t pid, const DaemonCpu& before,
                                      const DaemonCpu& after, double wall_s);

// ---- phase threads --------------------------------------------------------

/// The load-generator threads of one phase. A body's exception is kept and
/// rethrown by join(), so none escapes a thread's entry function.
class PhaseThreads {
 public:
  PhaseThreads() = default;
  ~PhaseThreads();  // joins whatever join() did not
  PhaseThreads(const PhaseThreads&) = delete;
  PhaseThreads& operator=(const PhaseThreads&) = delete;

  void spawn(std::function<void()> body);
  /// Joins every thread, then rethrows the first exception a body raised.
  void join();

 private:
  std::deque<std::exception_ptr> errors_;  // one per thread, stable slots
  std::vector<std::thread> threads_;
};

/// What polling kStats over a phase saw.
struct StatsPolls {
  std::size_t polls = 0;
  double queue_depth_mean = 0.0;
  ranm::serve::ServiceStats last;  // the final reply

  /// Folds in a later polling window.
  void merge(const StatsPolls& other);
};
/// Polls kStats on a connection of its own every `period_s` until
/// `until`, on the calling thread.
[[nodiscard]] StatsPolls poll_stats(const std::string& socket_path,
                                    Clock::time_point until,
                                    double period_s);

// ---- helpers --------------------------------------------------------------

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
