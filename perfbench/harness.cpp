#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "core/protocol.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace proto = p2drm::core::protocol;
using p2drm::obs::Registry;

double Samples::Mean() const {
  return v_.empty() ? 0.0 : std::accumulate(v_.begin(), v_.end(), 0.0) / v_.size();
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * s.size()));
  rank = std::min(std::max<std::size_t>(rank, 1), s.size());
  std::nth_element(s.begin(), s.begin() + (rank - 1), s.end());
  return s[rank - 1];
}

void Result::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void CheckPassesAgree(const Fingerprint& untraced, const Fingerprint& traced,
                      Result* result) {
  result->Check(untraced == traced,
                "traced and untraced passes did the same exact work");
  result->fingerprint = traced;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void AddOpCounts(const p2drm::core::OpCounters& ops, Fingerprint* fp) {
  fp->push_back({"crypto.keygen", ops.keygen});
  fp->push_back({"crypto.sign", ops.sign});
  fp->push_back({"crypto.verify", ops.verify});
  fp->push_back({"crypto.blind_sign", ops.blind_sign});
  fp->push_back({"crypto.blind_prep", ops.blind_prep});
  fp->push_back({"crypto.hyb_enc", ops.hybrid_enc});
  fp->push_back({"crypto.hyb_dec", ops.hybrid_dec});
}

void InterposeEndpoints(p2drm::core::P2drmSystem* system,
                        p2drm::net::ServiceRegistry* ca_service,
                        p2drm::obs::Tracer* tracer,
                        const std::uint64_t* current_op) {
  using p2drm::core::P2drmSystem;
  using p2drm::core::Status;
  p2drm::core::CertificationAuthority* ca = &system->ca();
  ca_service->Register<proto::EnrolRequest>(
      [ca](const proto::EnrolRequest& req, proto::EnrolResponse* resp) {
        resp->certificate = ca->Enrol(req.holder_name, req.master_key);
        return Status::kOk;
      });
  ca_service->Register<proto::PseudonymSignRequest>(
      [ca](const proto::PseudonymSignRequest& req,
           proto::PseudonymSignResponse* resp) {
        resp->blind_signature = ca->SignPseudonymBlinded(req.card_id, req.blinded);
        return Status::kOk;
      });
  ca_service->Register<proto::DeviceCertRequest>(
      [ca](const proto::DeviceCertRequest& req, proto::DeviceCertResponse* resp) {
        resp->certificate = ca->CertifyDevice(req.device_key, req.security_level);
        return Status::kOk;
      });

  struct Endpoint {
    const char* name;
    const char* span;
    const p2drm::net::ServiceRegistry* service;
  };
  const Endpoint endpoints[] = {
      {P2drmSystem::kCpEndpoint, "net.cp", &system->cp_service()},
      {P2drmSystem::kBankEndpoint, "net.bank", &system->bank_service()},
      {P2drmSystem::kCaEndpoint, "net.ca", ca_service},
  };
  for (const Endpoint& e : endpoints) {
    system->transport().RegisterEndpoint(
        e.name, [e, tracer, current_op](const std::vector<std::uint8_t>& req) {
          OpSpan span(tracer, e.span, *current_op);
          return e.service->Dispatch(req);
        });
  }
}

// -- trace fold ----------------------------------------------------------------

double Ledger::TotalUs(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_us;
}

std::uint64_t Ledger::Count(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0 : it->second.count;
}

double Ledger::SelfSumUs() const {
  double sum = 0;
  for (const auto& kv : spans) sum += kv.second.self_us;
  return sum;
}

namespace {

// Extracts the value after `"key":` in one exported event object.
bool FindString(const std::string& line, const char* key, std::string* out) {
  std::string pat = std::string("\"") + key + "\":\"";
  std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  at += pat.size();
  std::size_t end = line.find('"', at);
  if (end == std::string::npos) return false;
  *out = line.substr(at, end - at);
  return true;
}

bool FindNumber(const std::string& line, const char* key, std::uint64_t* out) {
  std::string pat = std::string("\"") + key + "\":";
  std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  *out = std::strtoull(line.c_str() + at + pat.size(), nullptr, 10);
  return true;
}

struct Open {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t op = 0;
  double child_us = 0;
};

}  // namespace

Ledger FoldTrace(const p2drm::obs::Tracer& tracer) {
  std::string events;
  bool first = true;
  tracer.AppendChromeTraceEvents(&events, 1, "perfbench", &first);

  Ledger ledger;
  ledger.dropped = tracer.dropped_count();
  std::map<std::uint64_t, std::vector<Open>> stacks;  // by tid
  std::size_t pos = 0;
  while (pos < events.size()) {
    std::size_t end = events.find('\n', pos);
    if (end == std::string::npos) end = events.size();
    const std::string line = events.substr(pos, end - pos);
    pos = end + 1;
    std::string name, ph;
    std::uint64_t ts = 0, tid = 0, op = 0;
    if (!FindString(line, "ph", &ph) || (ph != "B" && ph != "E")) continue;
    if (!FindString(line, "name", &name) || !FindNumber(line, "ts", &ts) ||
        !FindNumber(line, "tid", &tid)) {
      ++ledger.unmatched;
      continue;
    }
    ++ledger.events;
    std::vector<Open>& stack = stacks[tid];
    if (ph == "B") {
      FindNumber(line, "op", &op);
      if (!stack.empty() && stack.back().name != kRootSpan &&
          stack.back().op != op) {
        ++ledger.op_mismatch;
      }
      stack.push_back({name, ts, op, 0});
      continue;
    }
    if (stack.empty() || stack.back().name != name) {
      ++ledger.unmatched;
      continue;
    }
    Open open = stack.back();
    stack.pop_back();
    const double dur = static_cast<double>(ts - open.ts);
    SpanTotals& t = ledger.spans[name];
    t.count += 1;
    t.total_us += dur;
    t.self_us += dur - open.child_us;
    if (!stack.empty()) stack.back().child_us += dur;
  }
  for (const auto& kv : stacks) ledger.unmatched += kv.second.size();
  return ledger;
}

std::string LayerOf(const std::string& span_name) {
  if (span_name == kRootSpan) return "loop";
  if (span_name.rfind("agent.", 0) == 0) return "client";
  if (span_name == "net.cp") return "cp";
  if (span_name == "net.bank") return "bank";
  if (span_name == "net.ca") return "ca";
  if (span_name.rfind("cluster.", 0) == 0) return "cluster";
  if (span_name.rfind("store.", 0) == 0) return "store";
  return "other";
}

void ReportLedger(const Ledger& ledger, double wall_s, LayerMetrics* metrics,
                  Result* result) {
  std::map<std::string, SpanTotals> layers;
  for (const auto& kv : ledger.spans) {
    SpanTotals& l = layers[LayerOf(kv.first)];
    l.count += kv.second.count;
    l.total_us += kv.second.total_us;
    l.self_us += kv.second.self_us;
  }
  const double wall_us = wall_s * 1e6;
  std::printf("ledger (traced pass, wall %.3f s; self time by layer)\n", wall_s);
  std::printf("  %-10s %10s %12s %8s\n", "layer", "spans", "self_ms", "share");
  for (const auto& kv : layers) {
    std::printf("  %-10s %10llu %12.3f %7.2f%%\n", kv.first.c_str(),
                static_cast<unsigned long long>(kv.second.count),
                kv.second.self_us / 1e3, 100.0 * Ratio(kv.second.self_us, wall_us));
  }
  for (const char* layer : {"client", "cp", "bank", "ca", "cluster", "store", "loop"}) {
    auto it = layers.find(layer);
    const double self_us = it == layers.end() ? 0.0 : it->second.self_us;
    metrics->Set(std::string("ledger.") + layer + "_pct", 100.0 * Ratio(self_us, wall_us));
  }
  result->Check(layers.count("other") == 0, "trace: every span maps to a layer");
  const double self_sum = ledger.SelfSumUs();
  std::printf("  %-10s %10s %12.3f %7.2f%%\n", "sum", "", self_sum / 1e3,
              100.0 * Ratio(self_sum, wall_us));
  std::printf("  span events=%llu unmatched=%llu op_mismatch=%llu dropped=%llu\n",
              static_cast<unsigned long long>(ledger.events),
              static_cast<unsigned long long>(ledger.unmatched),
              static_cast<unsigned long long>(ledger.op_mismatch),
              static_cast<unsigned long long>(ledger.dropped));

  result->Check(ledger.unmatched == 0 && ledger.dropped == 0,
                "trace: every span closes and none is dropped");
  result->Check(ledger.op_mismatch == 0, "trace: spans of one op share its id");
  // Self times sum to the root spans exactly; the root span must cover the
  // separately clocked pass (1% allows microsecond truncation per span).
  result->Check(std::fabs(self_sum - wall_us) <= 0.01 * wall_us,
                "trace: ledger self times add up to the traced pass wall time");
}

// -- registry lookups -------------------------------------------------------

namespace {
const Registry::MetricValue* Find(const std::vector<Registry::MetricValue>& agg,
                                  const std::string& name) {
  for (const auto& m : agg) {
    if (m.name == name) return &m;
  }
  return nullptr;
}
}  // namespace

std::uint64_t CounterValue(const std::vector<Registry::MetricValue>& agg,
                           const std::string& name) {
  const Registry::MetricValue* m = Find(agg, name);
  return m != nullptr ? m->counter : 0;
}

std::int64_t GaugeValue(const std::vector<Registry::MetricValue>& agg,
                        const std::string& name) {
  const Registry::MetricValue* m = Find(agg, name);
  return m != nullptr ? m->gauge : 0;
}

std::uint64_t HistogramSum(const std::vector<Registry::MetricValue>& agg,
                           const std::string& name) {
  const Registry::MetricValue* m = Find(agg, name);
  return m != nullptr ? m->hist.sum : 0;
}

// -- inputs ---------------------------------------------------------------

namespace {
std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

p2drm::rel::LicenseId SyntheticId(std::uint64_t key, std::uint64_t i) {
  p2drm::rel::LicenseId id;
  const std::uint64_t k = SplitMix(key);
  const std::uint64_t words[2] = {SplitMix(k + 2 * i), SplitMix(k + 2 * i + 1)};
  for (int w = 0; w < 2; ++w) {
    for (int b = 0; b < 8; ++b) {
      id.bytes[w * 8 + b] = static_cast<std::uint8_t>(words[w] >> (8 * b));
    }
  }
  return id;
}

// -- process / filesystem ----------------------------------------------------

namespace {

// The CPUs this process may run on, read once at start-up (before any
// pinning narrows the calling thread's own mask).
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

std::size_t rotation = 0;      // RotatePlacement calls so far
double placement_seconds = 0;  // time spent in RotatePlacement

}  // namespace

void RotatePlacement() {
  const auto t0 = SteadyClock::now();
  const std::vector<int>& cpus = AllowedCpus();
  if (!cpus.empty()) {
    const long self = syscall(SYS_gettid);
    std::vector<long> tids = {self};
    std::vector<long> others;
    std::error_code ec;
    for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
      const long tid = std::strtol(task.path().filename().c_str(), nullptr, 10);
      if (tid != self) others.push_back(tid);
    }
    std::sort(others.begin(), others.end());
    tids.insert(tids.end(), others.begin(), others.end());
    for (std::size_t i = 0; i < tids.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[(i + rotation) % cpus.size()], &one);
      sched_setaffinity(static_cast<pid_t>(tids[i]), sizeof(one), &one);
    }
    ++rotation;
  }
  placement_seconds += SecondsSince(t0);
}

double PlacementSeconds() { return placement_seconds; }

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void ClearDirectory(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    fs::remove_all(entry.path(), ec);
  }
}

// -- per-layer metric table ----------------------------------------------------

LayerMetrics::LayerMetrics() {
  const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"agent.pseudonym_ms", "ms"},
      {"agent.pseudonyms_per_op", "count"},
      {"agent.client_ms_per_op", "ms"},
      {"agent.retried_items", "count"},
      {"net.cp.server_ms_per_op", "ms"},
      {"net.bank.server_ms_per_op", "ms"},
      {"net.ca.server_ms_per_op", "ms"},
      {"net.cp.calls_per_op", "count"},
      {"net.bank.calls_per_op", "count"},
      {"net.wire_bytes_per_op", "B"},
      {"net.wire_msgs_per_op", "count"},
      {"server.purchase.verify_us_per_item", "us"},
      {"server.purchase.mutate_us_per_item", "us"},
      {"server.purchase.issue_us_per_item", "us"},
      {"server.exchange.verify_us_per_item", "us"},
      {"server.exchange.mutate_us_per_item", "us"},
      {"server.exchange.issue_us_per_item", "us"},
      {"server.redeem.verify_us_per_item", "us"},
      {"server.redeem.mutate_us_per_item", "us"},
      {"server.redeem.issue_us_per_item", "us"},
      {"server.verify.full_per_item", "ratio"},
      {"server.signer_pool.steals", "count"},
      {"server.shed_items", "count"},
      {"payment.deposit.verify_us_per_item", "us"},
      {"payment.deposit.mutate_us_per_item", "us"},
      {"crypto.keygen_per_op", "count"},
      {"crypto.sign_per_op", "count"},
      {"crypto.verify_per_op", "count"},
      {"crypto.blind_sign_per_op", "count"},
      {"crypto.hyb_enc_per_op", "count"},
      {"crypto.hyb_dec_per_op", "count"},
      {"store.spent_bytes_per_id", "B"},
      {"store.journal_scan_ids_per_s", "1/s"},
      {"cluster.spend_call_us", "us"},
      {"cluster.failover_s", "s"},
      {"cluster.queue_high_water", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"ledger.client_pct", "%"},
      {"ledger.cp_pct", "%"},
      {"ledger.bank_pct", "%"},
      {"ledger.ca_pct", "%"},
      {"ledger.cluster_pct", "%"},
      {"ledger.store_pct", "%"},
      {"ledger.loop_pct", "%"},
  };
  for (const auto& m : kLayerMetrics) values[m.first] = {0.0, m.second};
}

void LayerMetrics::Set(const std::string& name, double value) {
  auto it = values.find(name);
  if (it == values.end()) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second.first = value;
}

void LayerMetrics::EmitTo(Result* result) const {
  for (const auto& kv : values) {
    result->Layer(kv.first, kv.second.first, kv.second.second);
  }
}

// -- run protocol ---------------------------------------------------------------

namespace {

// One measured pass on a set-up workload; spreads the threads first.
Pass MeasuredPass(Workload& workload, p2drm::obs::Tracer* tracer,
                  LayerMetrics* layers, Result* result) {
  if (tracer != nullptr) tracer->set_enabled(true);
  RotatePlacement();
  const auto t0 = SteadyClock::now();
  Pass pass;
  {
    OpSpan root(tracer, kRootSpan, 0);
    pass = workload.Run(layers, result);
  }
  pass.pass_s = SecondsSince(t0);
  return pass;
}

}  // namespace

void RunWorkload(const Options& options, const WorkloadFactory& make,
                 Result* result) {
  if (!options.trace) {
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    for (int i = 0; i < kSetups; ++i) {
      workload.reset();
      ClearDirectory(options.work_dir);
      RotatePlacement();
      workload = make();
      const auto t0 = SteadyClock::now();
      workload->SetUp(nullptr, nullptr);
      setups.push_back(SecondsSince(t0));
    }
    const Pass pass = MeasuredPass(*workload, nullptr, nullptr, result);
    result->EndToEnd("ops_per_s", Ratio(pass.ops, pass.loop_s), "1/s");
    workload->Report(result);
    result->EndToEnd("setup_s", Median(setups), "s");
    result->EndToEnd("peak_rss_mib", PeakRssMib(), "MiB");
    result->fingerprint = pass.fingerprint;
    return;
  }

  Pass untraced;
  {
    ClearDirectory(options.work_dir);
    RotatePlacement();
    std::unique_ptr<Workload> workload = make();
    workload->SetUp(nullptr, nullptr);
    untraced = MeasuredPass(*workload, nullptr, nullptr, result);
  }
  ClearDirectory(options.work_dir);
  p2drm::obs::Tracer tracer(1 << 20);
  p2drm::obs::Registry registry;
  tracer.set_enabled(false);  // MeasuredPass switches it on with the pass
  RotatePlacement();
  std::unique_ptr<Workload> workload = make();
  workload->SetUp(&tracer, &registry);
  LayerMetrics layers;
  const Pass traced = MeasuredPass(*workload, &tracer, &layers, result);
  workload->Report(result);
  CheckPassesAgree(untraced.fingerprint, traced.fingerprint, result);

  const Ledger ledger = FoldTrace(tracer);
  ReportLedger(ledger, traced.pass_s, &layers, result);
  workload->Layers(ledger, traced, &layers);
  const double untraced_rate = Ratio(untraced.ops, untraced.loop_s);
  const double traced_rate = Ratio(traced.ops, traced.loop_s);
  layers.Set("obs.trace_overhead_pct",
             100.0 * Ratio(untraced_rate - traced_rate, untraced_rate));
  layers.EmitTo(result);
}

}  // namespace perfbench
