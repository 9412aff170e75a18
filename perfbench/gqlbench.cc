// gqlbench: the repository benchmark's load generator and answer checker.
// Run it through perfbench/run.py, which builds gqld and gqlbench from
// source first:
//   python3 perfbench/run.py --workload serve_small --seed 1 --seconds 8
//       --trace 0   (one line)
//
// Flags (all required except where noted):
//   --workload NAME   serve_small | match_prune | match_search | write_durable
//   --seed N          workload seed: documents, queries, literals, order
//   --seconds N       measured closed-loop time
//   --trace 0|1       0: end-to-end metrics from gqld over loopback;
//                     1: per-layer metrics from a traced in-process replay
//   --gqld PATH       the gqld binary to start
//   --workdir DIR     scratch directory for inputs and data dirs
//   --trace-file P    (optional) Chrome trace of the traced replay
//   --self-test       run the benchmark's self-tests instead
//
// Standard output: one line per metric (value, unit, sample count), a
// "provenance {...}" line, and as the last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "io/serialize.h"
#include "server/client.h"

namespace gqlbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Host-wide CPU time from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Where two response bodies first differ, for failure messages.
std::string FirstDifference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    bool more_a = static_cast<bool>(std::getline(a, la));
    bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "bodies equal";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ": expected '" +
             (more_a ? la : "<end>") + "', got '" + (more_b ? lb : "<end>") +
             "'";
    }
  }
}

/// One client connection of the closed loop.
struct Conn {
  int id = 0;
  server::Client client;
  std::vector<double> read_us;
  std::vector<double> write_us;
  /// Completion time of every read and of every answered op.
  std::vector<Clock::time_point> read_done;
  std::vector<Clock::time_point> write_done;
  std::vector<Clock::time_point> op_done;
  /// Request class of every read (index into `classes`).
  std::vector<uint8_t> read_class;
  std::vector<std::string> classes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t answered = 0;
  uint64_t reordered = 0;
  uint64_t next = 0;  ///< Next op index of this connection's stream.
  std::string first_error;
  /// Write doc -> load_text source of its last successful publish.
  std::map<std::string, std::string> written;

  /// Drops the warm-up: every sample and count of ops completed before
  /// `t`. Failures stay counted whenever they happened.
  void Discard(Clock::time_point t) {
    size_t reads = 0;
    while (reads < read_done.size() && read_done[reads] < t) ++reads;
    read_us.erase(read_us.begin(), read_us.begin() + reads);
    read_done.erase(read_done.begin(), read_done.begin() + reads);
    read_class.erase(read_class.begin(), read_class.begin() + reads);
    size_t ops = 0;
    while (ops < op_done.size() && op_done[ops] < t) ++ops;
    op_done.erase(op_done.begin(), op_done.begin() + ops);
    answered -= ops;
    size_t writes = 0;
    while (writes < write_done.size() && write_done[writes] < t) ++writes;
    write_us.erase(write_us.begin(), write_us.begin() + writes);
    write_done.erase(write_done.begin(), write_done.begin() + writes);
  }

  uint8_t ClassId(const std::string& name) {
    for (size_t i = 0; i < classes.size(); ++i) {
      if (classes[i] == name) return static_cast<uint8_t>(i);
    }
    classes.push_back(name);
    return static_cast<uint8_t>(classes.size() - 1);
  }

  void Fail(bool is_wrong, const std::string& why) {
    ++failed;
    if (is_wrong) ++wrong;
    if (first_error.empty()) first_error = why;
  }

  Status Open(int port, const Workload& w) {
    GQL_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
    for (const server::Request& req : w.prelude) {
      GQL_ASSIGN_OR_RETURN(server::Response resp, client.Call(req));
      if (resp.code != StatusCode::kOk) {
        return Status::Internal("prelude " + std::string(OpName(req.op)) +
                                " failed: " + resp.body);
      }
    }
    return Status::OK();
  }

  /// Runs one op; returns false when the connection is unusable.
  bool RunOp(const Workload& w, const Op& op) {
    ++attempted;
    auto t0 = Clock::now();
    if (op.write) {
      auto load = client.Call(op.requests[0]);
      bool ok = load.ok() && load->code == StatusCode::kOk;
      Result<server::Response> pub = Status::Internal("not sent");
      if (ok) pub = client.Call(op.requests[1]);
      const auto t1 = Clock::now();
      double us = Micros(t0, t1);
      write_us.push_back(us);
      write_done.push_back(t1);
      if (!load.ok() || (ok && !pub.ok())) {
        Fail(false, "torn connection on write");
        return false;
      }
      ++answered;
      op_done.push_back(Clock::now());
      const std::string want = "published " + op.doc + " at version ";
      if (!ok || pub->code != StatusCode::kOk ||
          pub->body.compare(0, want.size(), want) != 0) {
        const server::Response& bad = ok ? *pub : *load;
        Fail(!IsGoverned(bad.code), "write " + op.doc + ": " + bad.body);
        return true;
      }
      written[op.doc] = op.requests[0].b;
      return true;
    }
    auto resp = client.Call(op.requests[0]);
    const auto t1 = Clock::now();
    double us = Micros(t0, t1);
    read_us.push_back(us);
    read_done.push_back(t1);
    read_class.push_back(ClassId(w.op_class(op)));
    if (!resp.ok()) {
      Fail(false, "torn connection: " + resp.status().ToString());
      return false;
    }
    ++answered;
    op_done.push_back(t1);
    auto it = w.expected.find(op.key);
    if (it == w.expected.end()) {
      Fail(true, "no expected answer for " + op.key);
      return true;
    }
    const Verdict verdict = Check(it->second, *resp);
    if (verdict == Verdict::kReordered) ++reordered;
    // A shed or a governor trip is a failure; it is also a wrong answer
    // only when the oracle's answer is a different one.
    const bool governed = IsGoverned(resp->code);
    if (verdict == Verdict::kWrong || governed) {
      const bool wrong = verdict == Verdict::kWrong &&
                         !(governed && it->second.code == StatusCode::kOk);
      Fail(wrong, "op " + op.key + ": got code " +
                      StatusCodeName(resp->code) + "; " +
                      FirstDifference(it->second.body,
                                      NormalizeBody(resp->body)));
    }
    return true;
  }
};

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- Gqld

Gqld::~Gqld() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

Status Gqld::Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log_path) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  pid_ = pid;
  close(fds[1]);
  // Wait for "PORT <n>" (printed once gqld has loaded or recovered its
  // data and is listening).
  std::string line;
  auto deadline = Clock::now() + std::chrono::seconds(120);
  while (line.find('\n') == std::string::npos) {
    pollfd p{fds[0], POLLIN, 0};
    const int ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (ms <= 0 || poll(&p, 1, ms) <= 0) {
      close(fds[0]);
      return Status::Internal("gqld did not report its port");
    }
    char buf[256];
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      close(fds[0]);
      return Status::Internal("gqld exited before listening (see " +
                              log_path + ")");
    }
    line.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (std::sscanf(line.c_str(), "PORT %d", &port_) != 1) {
    return Status::Internal("unexpected gqld output: " + line);
  }
  return Status::OK();
}

Status Gqld::Stop() {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, SIGTERM);
  auto deadline = Clock::now() + std::chrono::seconds(60);
  int status = 0;
  while (true) {
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return Status::Internal("gqld did not drain within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("gqld exited abnormally");
  }
  return Status::OK();
}

double Gqld::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

// ---------------------------------------------------------------- server run

Result<ServerRun> RunServer(const Args& args, Workload* w, int starts,
                            double seconds) {
  ServerRun run;
  const std::string base = args.workdir;
  for (int s = 0; s < starts; ++s) {
    const bool last = s + 1 == starts;
    std::vector<std::string> gargs = {"--port", "0", "--print-port"};
    std::string data_dir;
    if (!w->data_dir.empty()) {
      data_dir = base + "/data-" + std::to_string(s);
      std::error_code ec;
      fs::remove_all(data_dir, ec);
      fs::copy(w->data_dir, data_dir, fs::copy_options::recursive, ec);
      if (ec) return Status::Internal("copy data dir: " + ec.message());
      gargs.insert(gargs.end(), {"--data-dir", data_dir});
    }
    for (const auto& [name, path] : w->preload) {
      gargs.insert(gargs.end(), {"--load", name + "=" + path});
    }

    // setup_s: from starting gqld until every connection has its first
    // correct answer.
    auto t0 = Clock::now();
    Gqld gqld;
    GQL_RETURN_IF_ERROR(gqld.Start(
        args.gqld, gargs, base + "/gqld-" + std::to_string(s) + ".log"));
    std::vector<std::unique_ptr<Conn>> conns;
    for (int c = 0; c < w->connections; ++c) {
      conns.push_back(std::make_unique<Conn>());
      conns.back()->id = c;
    }
    std::vector<Status> setup_status(conns.size(), Status::OK());
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < conns.size(); ++c) {
        threads.emplace_back([&, c] {
          Conn& conn = *conns[c];
          Status st = conn.Open(gqld.port(), *w);
          if (st.ok()) {
            Op op = w->next_op(conn.id, conn.next++);
            conn.RunOp(*w, op);
            if (conn.failed > 0) st = Status::Internal(conn.first_error);
          }
          setup_status[c] = st;
        });
      }
      for (std::thread& t : threads) t.join();
    }
    auto t1 = Clock::now();
    for (const Status& st : setup_status) {
      if (!st.ok()) {
        return Status::Internal("setup: " + st.ToString());
      }
    }
    run.setup_s.push_back(Seconds(t0, t1));
    if (!last) {
      for (auto& c : conns) c->client.Close();
      GQL_RETURN_IF_ERROR(gqld.Stop());
      if (!data_dir.empty()) {
        std::error_code ec;
        fs::remove_all(data_dir, ec);
      }
      continue;
    }

    // The measured closed loop. The setup op of each connection is not
    // part of the sample.
    for (auto& c : conns) {
      c->read_us.clear();
      c->write_us.clear();
      c->read_done.clear();
      c->write_done.clear();
      c->op_done.clear();
      c->read_class.clear();
      c->attempted = c->failed = c->wrong = c->answered = c->reordered = 0;
    }
    // A warm-up lets plan caches and label indexes fill before timing;
    // everything that completes before `measure_start` is discarded.
    std::atomic<bool> stop{false};
    const CpuTicks ticks0 = ReadCpuTicks();
    const auto measure_start =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kWarmupSeconds));
    {
      std::vector<std::thread> threads;
      for (auto& cp : conns) {
        Conn* conn = cp.get();
        threads.emplace_back([&, conn] {
          while (!stop.load(std::memory_order_relaxed)) {
            Op op = w->next_op(conn->id, conn->next++);
            if (!conn->RunOp(*w, op)) {
              // Torn connection: reconnect and carry on.
              conn->client.Close();
              if (!conn->Open(gqld.port(), *w).ok()) break;
            }
          }
        });
      }
      std::this_thread::sleep_until(
          measure_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds)));
      stop.store(true);
      for (std::thread& t : threads) t.join();
    }
    const auto measure_end = Clock::now();
    run.elapsed_s = Seconds(measure_start, measure_end);
    const CpuTicks ticks1 = ReadCpuTicks();
    if (ticks1.total > ticks0.total) {
      run.host_steal_frac = static_cast<double>(ticks1.steal - ticks0.steal) /
                            static_cast<double>(ticks1.total - ticks0.total);
    }
    // Per-window samples: reads and answered ops by completion time.
    run.window_reads.assign(kWindows, {});
    run.window_ops.assign(kWindows, 0);
    auto window_of = [&](Clock::time_point t) {
      double at = Seconds(measure_start, t) / run.elapsed_s;
      return std::min<size_t>(kWindows - 1,
                              static_cast<size_t>(at * kWindows));
    };
    for (auto& c : conns) {
      c->Discard(measure_start);
      for (size_t i = 0; i < c->read_us.size(); ++i) {
        run.window_reads[window_of(c->read_done[i])].push_back(c->read_us[i]);
      }
      for (Clock::time_point t : c->op_done) ++run.window_ops[window_of(t)];
    }
    run.peak_rss_mb = gqld.PeakRssMb();
    for (auto& c : conns) c->client.Close();
    Status stopped = gqld.Stop();
    if (!stopped.ok()) return stopped;

    std::map<std::string, std::shared_ptr<const GraphCollection>> live =
        w->docs;
    for (auto& c : conns) {
      run.read_us.insert(run.read_us.end(), c->read_us.begin(),
                         c->read_us.end());
      run.write_us.insert(run.write_us.end(), c->write_us.begin(),
                          c->write_us.end());
      for (size_t i = 0; i < c->read_us.size(); ++i) {
        run.read_us_by_class[c->classes[c->read_class[i]]].push_back(
            c->read_us[i]);
      }
      if (!c->write_us.empty()) {
        auto& dst = run.read_us_by_class["write"];
        dst.insert(dst.end(), c->write_us.begin(), c->write_us.end());
      }
      run.attempted += c->attempted;
      run.failed += c->failed;
      run.wrong += c->wrong;
      run.reordered += c->reordered;
      run.ops += c->answered;
      if (run.first_error.empty()) run.first_error = c->first_error;
      for (const auto& [doc, text] : c->written) {
        auto parsed = io::ReadCollectionText(text);
        if (!parsed.ok()) return parsed.status();
        live[doc] = std::make_shared<const GraphCollection>(
            std::move(parsed).value());
      }
    }
    if (!data_dir.empty()) {
      // Clean shutdown checkpointed the live docs; compare the data dir
      // against their v2 binary size.
      run.disk_bytes = static_cast<double>(DirBytes(data_dir));
      for (const auto& [name, c] : live) {
        run.live_user_bytes += static_cast<double>(V2Bytes(*c));
      }
      std::error_code ec;
      fs::remove_all(data_dir, ec);
    }
  }
  return run;
}

// ---------------------------------------------------------------- main

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gqlbench --workload NAME --seed N --seconds N "
               "--trace 0|1 --gqld PATH --workdir DIR [--trace-file PATH]\n"
               "       gqlbench --self-test --gqld PATH --workdir DIR\n");
  return 2;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %14s %-6s n=%llu%s%s\n", m.name.c_str(),
              Format("%.4f", m.value).c_str(), m.unit.c_str(),
              static_cast<unsigned long long>(m.samples),
              m.note.empty() ? "" : "  ", m.note.c_str());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  bool self_test = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(next().c_str());
    } else if (a == "--trace") {
      args.trace = next() == "1";
      have_trace = true;
    } else if (a == "--gqld") {
      args.gqld = next();
    } else if (a == "--workdir") {
      args.workdir = next();
    } else if (a == "--trace-file") {
      args.trace_file = next();
    } else if (a == "--self-test") {
      self_test = true;
    } else {
      return Usage();
    }
  }
  if (args.gqld.empty() || args.workdir.empty()) return Usage();
  // Before any thread or gqld child exists, so all of them inherit it.
  const std::string cpus = PinToLastCpus(kBenchCpus);
  if (self_test) return RunSelfTests(args);
  if (args.workload.empty() || !have_trace || args.seconds <= 0) {
    return Usage();
  }

  const std::string base = args.workdir;
  args.workdir = base + "/" + args.workload + "-" + std::to_string(getpid());
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{args.workdir};

  auto made = MakeWorkload(args.workload, args.seed, args.workdir);
  if (!made.ok()) {
    std::fprintf(stderr, "gqlbench: %s\n", made.status().ToString().c_str());
    return 1;
  }
  Workload* w = made.value().get();
  w->knobs.push_back({"pinned_cpus", cpus});

  std::vector<Metric> metrics;
  ServerRun run;
  std::string tail_line;
  if (!args.trace) {
    // Five gqld starts give five setup samples; the last instance serves
    // the measured loop.
    auto r = RunServer(args, w, 5, args.seconds);
    if (!r.ok()) {
      std::fprintf(stderr, "gqlbench: %s\n", r.status().ToString().c_str());
      return 1;
    }
    run = std::move(r).value();
    // Each timing is the median over kWindows equal windows of the run, so
    // a burst of interference on the host moves at most one window.
    const int tail = TailPercentile(run.read_us.size() / kWindows);
    std::vector<double> ops, p50, ptail;
    for (size_t k = 0; k < kWindows; ++k) {
      ops.push_back(static_cast<double>(run.window_ops[k]) /
                    (run.elapsed_s / kWindows));
      p50.push_back(Percentile(&run.window_reads[k], 50));
      ptail.push_back(Percentile(&run.window_reads[k], tail));
    }

    const std::string windows =
        "median of " + std::to_string(kWindows) + " windows";
    metrics.push_back({"ops_per_s", Median(ops), "1/s", run.ops, windows});
    metrics.push_back({"read_p50_us", Median(p50), "us", run.read_us.size(),
                       windows});
    // read_tail_us is printed here but gated nowhere: on a shared 4-vCPU
    // host its run-to-run spread at a fixed seed is 0.5-1.7 of its median
    // (perfbench/README.md). The traced run reports it per layer.
    tail_line = "  read_tail_us " + Format("%.1f", Median(ptail)) + " us (p" +
                std::to_string(tail) + ", " + windows + ", n=" +
                std::to_string(run.read_us.size()) + ")";
    metrics.push_back({"setup_s", Median(run.setup_s), "s",
                       run.setup_s.size(), "median of gqld starts"});
    metrics.push_back({"peak_rss_mb", run.peak_rss_mb, "MB", 1, "VmHWM"});
  } else {
    // A short untraced pass (latency per request class, write path, disk)
    // and then the traced in-process replay of the same stream.
    const double untraced_s = std::max(1.0, 0.4 * args.seconds);
    auto r = RunServer(args, w, 1, untraced_s);
    if (!r.ok()) {
      std::fprintf(stderr, "gqlbench: %s\n", r.status().ToString().c_str());
      return 1;
    }
    run = std::move(r).value();
    Status st = RunTraced(args, w, run, args.seconds - untraced_s, &metrics);
    if (!st.ok()) {
      std::fprintf(stderr, "gqlbench: traced pass: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  const int tail = TailPercentile(run.read_us.size() / kWindows);
  std::printf("workload %s seed %llu (%s)\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced replay" : "untraced, gqld over loopback");
  for (const Metric& m : metrics) PrintMetric(m);
  if (!tail_line.empty()) std::printf("%s\n", tail_line.c_str());
  // Context lines: not part of the gated metric set.
  std::vector<double> writes = run.write_us;
  const int wtail = TailPercentile(writes.size());
  std::printf("  failed_frac %.6f (%llu of %llu ops)\n",
              run.attempted > 0
                  ? static_cast<double>(run.failed) / run.attempted
                  : 0,
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  if (!writes.empty()) {
    std::printf("  write_p50_us %.1f  write_p%d_us %.1f  (n=%zu)\n",
                Percentile(&writes, 50), wtail, Percentile(&writes, wtail),
                writes.size());
  }
  if (run.live_user_bytes > 0) {
    std::printf("  disk_bytes_per_user_byte %.3f (%.0f / %.0f bytes)\n",
                run.disk_bytes / run.live_user_bytes, run.disk_bytes,
                run.live_user_bytes);
  }
  for (auto& [cls, v] : run.read_us_by_class) {
    std::vector<double> copy = v;
    std::printf("  class %-10s p50 %.1f us (n=%zu)\n", cls.c_str(),
                Percentile(&copy, 50), v.size());
  }
  std::printf("  reordered answers %llu (same graphs as the serial oracle, "
              "another order)\n",
              static_cast<unsigned long long>(run.reordered));
  if (!run.first_error.empty()) {
    std::printf("  first failure: %s\n", run.first_error.c_str());
  }
  std::printf("provenance %s\n", ProvenanceJson(*w, run, tail).c_str());
  const bool correct = run.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(run.attempted, 1)),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace gqlbench

int main(int argc, char** argv) { return gqlbench::Main(argc, argv); }
