// Percentiles, number formatting, CPU pinning and the provenance stamp.
#include <sched.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "../bench/bench_common.h"
#include "bench.h"
#include "io/serialize.h"
#include "storage/engine.h"

namespace gqlbench {

int TailPercentile(size_t samples) {
  if (samples >= 1000) return 99;
  for (int pct : {99, 95, 90, 75, 50}) {
    if (SamplesBeyond(samples, pct) >= 10) return pct;
  }
  return 0;
}

size_t SamplesBeyond(size_t samples, int pct) {
  // Nearest rank: the pct percentile is the ceil(pct/100 * n)-th value;
  // the samples after it lie beyond.
  size_t rank = static_cast<size_t>(std::ceil(
      static_cast<double>(pct) / 100.0 * static_cast<double>(samples)));
  return samples > rank ? samples - rank : 0;
}

double Percentile(std::vector<double>* v, double pct) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

std::string PinToLastCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1;
       cpu >= 0 && static_cast<int>(cpus.size()) < n; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.insert(cpus.begin(), cpu);
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu : cpus) {
    CPU_SET(cpu, &pinned);
    list += (list.empty() ? "" : ",") + std::to_string(cpu);
  }
  if (cpus.empty() || sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return "";
  }
  return list;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t V2Bytes(const GraphCollection& c) {
  std::ostringstream out;
  Status st = io::WriteCollectionBinary(c, &out);
  return st.ok() ? out.str().size() : 0;
}

std::string PatternText(const Graph& g) {
  std::string out;
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    out += "node n" + std::to_string(v) + " <label=\"" +
           std::string(g.Label(static_cast<NodeId>(v))) + "\">; ";
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const Graph::Edge& edge = g.edge(static_cast<EdgeId>(e));
    out += "edge e" + std::to_string(e) + " (n" + std::to_string(edge.src) +
           ", n" + std::to_string(edge.dst) + "); ";
  }
  return out;
}

namespace {

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x9123683E:
      return "btrfs";
    case 0x58465342:
      return "xfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

std::string ProvenanceJson(const Workload& w, const ServerRun& run,
                           int tail_pct) {
  const char* env_threads = std::getenv("GQL_THREADS");
  std::string out = "{\"build\": " + bench::BuildStampJson();
  out += ", \"gql_threads_env\": \"" +
         JsonEscape(env_threads != nullptr ? env_threads : "") + "\"";
  out += ", \"workload\": \"" + w.name + "\"";
  out += ", \"connections\": " + std::to_string(w.connections);
  out += ", \"session_threads\": " + std::to_string(w.threads);
  out += ", \"plan_cache_mb\": 8";
  out += ", \"durable\": " + std::string(w.data_dir.empty() ? "false" : "true");
  if (!w.data_dir.empty()) {
    out += ", \"data_dir_fs\": \"" + FilesystemOf(w.data_dir) + "\"";
    out += ", \"flush_policy\": \"fsync per commit, checkpoint every " +
           std::to_string(storage::DurableStore::Options{}.checkpoint_every) +
           " records\"";
  }
  out += ", \"read_tail_pct\": " + std::to_string(tail_pct);
  out += ", \"read_samples\": " + std::to_string(run.read_us.size());
  out += ", \"write_samples\": " + std::to_string(run.write_us.size());
  out += ", \"setup_samples\": " + std::to_string(run.setup_s.size());
  out += ", \"host_steal_frac\": " + Num(run.host_steal_frac);
  for (const auto& [k, v] : w.knobs) {
    out += ", \"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace gqlbench
