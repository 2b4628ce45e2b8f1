#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "serve/endpoint.hpp"
#include "serve/fd_frame.hpp"

extern char** environ;

namespace perfbench {

namespace serve = ranm::serve;

PhaseBudget phase_budget(double seconds) {
  // Shares chosen so that, at the default 45 s in twelve rounds, every
  // percentile the report names has its ten samples beyond it (one
  // open-loop window of about 380 frames, one saturation window and one
  // query window of about 0.75 s per round, at least 21 robust builds and
  // about 45 swaps), and the robust builds, about 0.7 s each, fit their
  // share.
  PhaseBudget b;
  b.frames_open = 0.34 * seconds;
  b.frames_saturation = 0.08 * seconds;
  b.robust_build = 0.38 * seconds;
  b.adapt_swap = 0.20 * seconds;
  return b;
}

// ---- statistics -----------------------------------------------------------

Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  out.value = samples[index];
  out.beyond = samples.size() - 1 - index;
  out.supported = out.beyond >= Quantile::kMinBeyond;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

WindowedFigure windowed_values(const std::vector<double>& values,
                               std::size_t samples) {
  WindowedFigure f;
  f.of_windows = values.size();
  f.windows = values.size();
  f.samples = samples;
  if (values.empty()) return f;
  f.median = median(values);
  f.min = *std::min_element(values.begin(), values.end());
  f.max = *std::max_element(values.begin(), values.end());
  return f;
}

WindowedFigure windowed_quantile(
    const std::vector<std::vector<double>>& per_window, double q) {
  std::vector<double> values;
  std::size_t samples = 0;
  for (const std::vector<double>& w : per_window) {
    samples += w.size();
    const Quantile p = quantile(w, q);
    if (p.supported) values.push_back(p.value);
  }
  WindowedFigure f = windowed_values(values, samples);
  f.of_windows = per_window.size();
  return f;
}

bool PhaseCounts::record(Outcome outcome, bool correct) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++(correct ? succeeded : mismatches);
      return correct;
    case Outcome::kError:
      ++errors;
      return false;
    case Outcome::kOverloaded:
      ++overloaded;
      return false;
    case Outcome::kTimeout:
      ++timeouts;
      return false;
  }
  return false;
}

void PhaseCounts::merge(const PhaseCounts& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  errors += other.errors;
  overloaded += other.overloaded;
  timeouts += other.timeouts;
  mismatches += other.mismatches;
}

// ---- report ---------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{value, unit, samples};
}

void Report::windowed_metric(const std::string& name,
                             const WindowedFigure& figure,
                             const std::string& unit) {
  note(format("window %-44s %zu of %zu windows, min %.6g max %.6g",
              name.c_str(), figure.windows, figure.of_windows, figure.min,
              figure.max));
  if (figure.windows == 0 || 2 * figure.windows < figure.of_windows) {
    check(format("%s: only %zu of %zu windows hold enough samples",
                 name.c_str(), figure.windows, figure.of_windows),
          false);
    return;
  }
  metric(name, figure.median, unit, figure.samples);
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  notes_.push_back(format("info   %-44s %14.6g %-10s n=%zu", name.c_str(),
                          value, unit.c_str(), samples));
}

void Report::info_windowed(const std::string& name,
                           const WindowedFigure& figure,
                           const std::string& unit) {
  note(format("info   %-44s %14.6g %-10s n=%zu, %zu of %zu windows, "
              "min %.6g max %.6g",
              name.c_str(), figure.median, unit.c_str(), figure.samples,
              figure.windows, figure.of_windows, figure.min, figure.max));
}

void Report::info_quantile(const std::string& name,
                           const std::vector<double>& samples, double q,
                           const std::string& unit) {
  const Quantile p = quantile(samples, q);
  if (p.supported) {
    info(name, p.value, unit, p.samples);
  } else {
    note(format("info   %-44s unsupported: n=%zu leaves %zu beyond p%g",
                name.c_str(), p.samples, p.beyond, q * 100.0));
  }
}

void Report::check(const std::string& what, bool ok) {
  if (!ok) {
    ++failed_checks_;
    notes_.push_back("CHECK FAILED: " + what);
  }
}

void Report::phase(const PhaseCounts& counts) { phases_.push_back(counts); }

void Report::note(const std::string& line) { notes_.push_back(line); }

int Report::finish() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("%-20s %10s %10s %8s %10s %8s %10s\n", "phase", "attempted",
              "succeeded", "kError", "kOverload", "timeout", "mismatch");
  PhaseCounts total;
  for (const PhaseCounts& c : phases_) {
    std::printf("%-20s %10llu %10llu %8llu %10llu %8llu %10llu\n",
                c.phase.c_str(), (unsigned long long)c.attempted,
                (unsigned long long)c.succeeded, (unsigned long long)c.errors,
                (unsigned long long)c.overloaded,
                (unsigned long long)c.timeouts,
                (unsigned long long)c.mismatches);
    total.merge(c);
  }
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("metric %-44s %14.6g %-10s n=%zu\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
  // The last line: one JSON object, full precision.
  std::string json = format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct() ? "true" : "false", (unsigned long long)total.attempted,
      (unsigned long long)total.failed());
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   first ? "" : ", ", name.c_str(), e.value, e.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() && total.failed() == 0 ? 0 : 1;
}

// ---- tracing --------------------------------------------------------------

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::size_t SpanLog::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.id = ++next_id_;
  s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  // A child inherits its parent's request id unless it names its own.
  s.request =
      request != 0 || stack_.empty() ? request : spans_[stack_.back()].request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

SpanLog* Tracer::new_log() {
  if (!enabled_) return nullptr;
  logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1));
  return logs_.back().get();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    // Child time per parent: spans of one log nest strictly, so the
    // parent's self time is its duration minus its direct children's.
    std::map<std::uint64_t, double> child_us;
    for (const Span& s : spans) {
      if (s.parent != 0) {
        child_us[s.parent] += double(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (const Span& s : spans) {
      SpanTotals& t = out[s.name];
      const double us = double(s.end_ns - s.start_ns) / 1e3;
      ++t.count;
      t.total_us += us;
      const auto it = child_us.find(s.id);
      t.self_us += us - (it == child_us.end() ? 0.0 : it->second);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  bool first = true;
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    for (const Span& s : logs_[t]->spans()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << t + 1 << ", \"ts\": " << double(s.start_ns) / 1e3
          << ", \"dur\": " << double(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
  }
  out << "\n]\n";
}

// ---- wire client ----------------------------------------------------------

WireClient::WireClient(const std::string& socket_path)
    : fd_(serve::connect_unix(socket_path)) {}

WireClient::~WireClient() { close_fd(); }

void WireClient::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool WireClient::read_exact(char* out, std::size_t n,
                            Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < n) {
    const double left_ms = ms_between(Clock::now(), deadline);
    if (left_ms <= 0.0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, int(std::ceil(left_ms)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      if (ready == 0) continue;  // re-check the deadline
      throw std::runtime_error("poll failed");
    }
    const ssize_t r = ::read(fd_, out + got, n - got);
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (r <= 0) throw std::runtime_error("daemon closed the connection");
    got += std::size_t(r);
  }
  return true;
}

Outcome WireClient::round_trip(serve::FrameType request,
                               std::string_view payload, serve::Frame& reply,
                               double timeout_s) {
  const Outcome sent = send(request, payload);
  return sent == Outcome::kOk ? receive(reply, timeout_s) : sent;
}

Outcome WireClient::send(serve::FrameType request, std::string_view payload) {
  if (fd_ < 0) return Outcome::kError;
  try {
    serve::write_frame_fd(fd_, request, payload);
  } catch (const std::exception&) {
    close_fd();
    return Outcome::kError;
  }
  return Outcome::kOk;
}

Outcome WireClient::receive(serve::Frame& reply, double timeout_s) {
  if (fd_ < 0) return Outcome::kError;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  try {
    char header[serve::kFrameHeaderBytes];
    if (!read_exact(header, sizeof header, deadline)) {
      // The reply may still arrive; the stream is out of step now.
      close_fd();
      return Outcome::kTimeout;
    }
    const serve::FrameHeader h = serve::decode_frame_header(header);
    reply.type = h.type;
    reply.payload.resize(h.payload_len);
    if (!read_exact(reply.payload.data(), h.payload_len, deadline)) {
      close_fd();
      return Outcome::kTimeout;
    }
  } catch (const std::exception&) {
    close_fd();
    return Outcome::kError;
  }
  if (reply.type == serve::FrameType::kOverloaded) return Outcome::kOverloaded;
  if (reply.type == serve::FrameType::kError) return Outcome::kError;
  return Outcome::kOk;
}

Outcome WireClient::query(std::span<const ranm::Tensor> inputs,
                          std::vector<std::uint8_t>& warns,
                          double timeout_s) {
  serve::encode_query_into(scratch_, inputs);
  const Outcome o =
      round_trip(serve::FrameType::kQuery, scratch_, reply_, timeout_s);
  if (o != Outcome::kOk) return o;
  if (reply_.type != serve::FrameType::kQueryReply) return Outcome::kError;
  try {
    serve::decode_verdicts_into(reply_.payload, warns);
  } catch (const std::exception&) {
    return Outcome::kError;
  }
  return Outcome::kOk;
}

// ---- daemon ---------------------------------------------------------------

Daemon::Daemon(const std::string& serve_bin, const std::string& net_path,
               const std::string& monitor_path, std::size_t layer,
               std::size_t workers, const std::string& socket_path,
               const std::string& log_path)
    : socket_(socket_path) {
  std::filesystem::remove(socket_path);
  const std::vector<std::string> args = {
      serve_bin,          "--net",    net_path,
      "--monitor",        monitor_path, "--layer",
      std::to_string(layer), "--socket", socket_path,
      "--workers",        std::to_string(workers)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc =
      posix_spawn(&pid_, serve_bin.c_str(), &actions, nullptr, argv.data(),
                  environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + serve_bin + ": " +
                             std::strerror(rc));
  }
}

Daemon::~Daemon() { (void)stop(); }

void Daemon::wait_ready(double timeout_s) const {
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      throw std::runtime_error("ranm_serve exited during start-up");
    }
    try {
      const int fd = serve::connect_unix(socket_);
      ::close(fd);
      return;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  throw std::runtime_error("ranm_serve did not start listening in time");
}

int Daemon::stop() {
  if (pid_ <= 0) return 0;
  int status = 0;
  bool reaped = false;
  // A graceful drain first, as an operator would ask for it.
  try {
    WireClient client(socket_);
    serve::Frame ack;
    (void)client.round_trip(serve::FrameType::kShutdown, "", ack, 5.0);
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  for (int i = 0; i < 500 && !reaped; ++i) {
    reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  int result = 0;
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    result = -1;
  } else {
    result = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  pid_ = -1;
  std::error_code ec;  // the destructor calls this; nothing may throw
  std::filesystem::remove(socket_, ec);
  return result;
}

double Daemon::peak_rss_bytes() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// utime + stime of a /proc stat file in seconds; negative when unreadable.
double stat_cpu_s(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
}

}  // namespace

DaemonCpu Daemon::cpu() const {
  DaemonCpu out;
  const std::filesystem::path proc = "/proc/" + std::to_string(pid_);
  out.process_s = std::max(0.0, stat_cpu_s(proc / "stat"));
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(proc / "task", ec)) {
    const double cpu_s = stat_cpu_s(entry.path() / "stat");
    if (cpu_s < 0.0) continue;
    ThreadCpu t;
    t.tid = pid_t(std::stol(entry.path().filename().string()));
    t.cpu_s = cpu_s;
    out.threads.push_back(t);
  }
  return out;
}

void DaemonBusy::merge(const DaemonBusy& other) {
  const double total = wall_s + other.wall_s;
  if (total <= 0.0) return;
  loop = (loop * wall_s + other.loop * other.wall_s) / total;
  worker_mean =
      (worker_mean * wall_s + other.worker_mean * other.wall_s) / total;
  workers = std::max(workers, other.workers);
  cpu_s += other.cpu_s;
  wall_s = total;
}

void StatsPolls::merge(const StatsPolls& other) {
  const std::size_t total = polls + other.polls;
  if (total == 0) return;
  queue_depth_mean = (queue_depth_mean * double(polls) +
                      other.queue_depth_mean * double(other.polls)) /
                     double(total);
  polls = total;
  last = other.last;
}

DaemonBusy busy_between(pid_t pid, const DaemonCpu& before,
                        const DaemonCpu& after, double wall_s) {
  DaemonBusy busy;
  busy.wall_s = wall_s;
  busy.cpu_s = after.process_s - before.process_s;
  if (wall_s <= 0.0) return busy;
  double worker_sum = 0.0;
  for (const ThreadCpu& a : after.threads) {
    const auto b = std::find_if(
        before.threads.begin(), before.threads.end(),
        [&](const ThreadCpu& t) { return t.tid == a.tid; });
    if (b == before.threads.end()) continue;
    const double frac = (a.cpu_s - b->cpu_s) / wall_s;
    if (a.tid == pid) {
      busy.loop = frac;
    } else {
      worker_sum += frac;
      ++busy.workers;
    }
  }
  busy.worker_mean = busy.workers ? worker_sum / double(busy.workers) : 0.0;
  return busy;
}

PhaseThreads::~PhaseThreads() {
  for (std::thread& t : threads_) t.join();
}

void PhaseThreads::spawn(std::function<void()> body) {
  std::exception_ptr& error = errors_.emplace_back();
  threads_.emplace_back([body = std::move(body), &error] {
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  });
}

void PhaseThreads::join() {
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::exception_ptr first;
  for (const std::exception_ptr& e : errors_) {
    if (e && !first) first = e;
  }
  errors_.clear();
  if (first) std::rethrow_exception(first);
}

StatsPolls poll_stats(const std::string& socket_path, Clock::time_point until,
                      double period_s) {
  StatsPolls out;
  WireClient client(socket_path);
  serve::Frame reply;
  double depth = 0.0;
  Clock::time_point next = Clock::now();
  while (true) {
    if (client.round_trip(serve::FrameType::kStats, "", reply, 5.0) ==
            Outcome::kOk &&
        reply.type == serve::FrameType::kStatsReply) {
      out.last = serve::decode_stats(reply.payload);
      depth += double(out.last.queue_depth);
      ++out.polls;
    }
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(period_s));
    if (next >= until) break;
    std::this_thread::sleep_until(next);
  }
  std::this_thread::sleep_until(until);
  if (out.polls != 0) {
    out.queue_depth_mean = depth / double(out.polls);
  }
  return out;
}

// ---- helpers --------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(std::size_t(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
