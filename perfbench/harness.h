#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file harness.h
/// \brief Shared plumbing of the repo benchmark: options, latency samples,
/// the run result (metrics, correctness checks, exact-count fingerprint),
/// op-tagged spans, the fold of a trace into a per-layer ledger, thread
/// placement and the run protocol every workload shares.
///
/// Layers are timed from outside: every span is recorded by the benchmark
/// itself around a call into a module's public API (agent op, transport
/// endpoint dispatch, cluster call, journal scan). Spans belonging to one
/// op carry the same `op` argument.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/system.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// The span that covers one measured pass; every other span nests in it.
constexpr const char* kRootSpan = "bench.pass";

inline double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for journals; the caller creates and removes it.
  std::string work_dir;
};

/// Latency samples (any unit) with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  std::size_t Count() const { return v_.size(); }
  /// 0 when empty.
  double Mean() const;
  /// p in (0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> v_;
};

/// An ordered list of named exact counts.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
class Result {
 public:
  /// Records a correctness check; a failing check fails the run.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted user-visible op and whether it failed.
  void CountOp(bool failed) {
    ++attempted;
    if (failed) ++this->failed;
  }
  bool correct() const { return failures.empty() && failed == 0; }

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Workload-specific figures printed in the report only.
  void Report(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, value, unit});
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> report;
  std::vector<std::string> failures;
  /// Exact counts that must repeat across runs of one seed.
  Fingerprint fingerprint;
};

/// Fails the run when the two passes of a traced run differ in any exact
/// count; the traced pass's counts become the run's fingerprint.
void CheckPassesAgree(const Fingerprint& untraced, const Fingerprint& traced,
                      Result* result);

/// Median of \p values (0 when empty).
double Median(std::vector<double> values);

/// Appends the crypto op counts of \p ops to \p fp under "crypto.*".
void AddOpCounts(const p2drm::core::OpCounters& ops, Fingerprint* fp);

/// RAII span tagged with an op id on a possibly-null tracer.
class OpSpan {
 public:
  OpSpan(p2drm::obs::Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->BeginWithArg(name_, "op", op);
  }
  ~OpSpan() {
    if (tracer_ != nullptr) tracer_->End(name_);
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  p2drm::obs::Tracer* tracer_;
  const char* name_;
};

/// Re-registers the "cp", "bank" and "ca" transport endpoints so every
/// dispatch runs inside a "net.<endpoint>" span tagged with *current_op.
/// cp and bank wrap the system's own ServiceRegistry::Dispatch; the CA's
/// registry is private to P2drmSystem, so \p ca_service is filled with the
/// same three handlers P2drmSystem registers and dispatched the same way.
void InterposeEndpoints(p2drm::core::P2drmSystem* system,
                        p2drm::net::ServiceRegistry* ca_service,
                        p2drm::obs::Tracer* tracer,
                        const std::uint64_t* current_op);

/// Per-span-name totals of a folded trace.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;  ///< summed durations
  double self_us = 0;   ///< durations minus time covered by child spans
};

/// A trace folded into per-span totals. The root span's self time is the
/// benchmark loop's own share, so self times over all names sum to the root
/// span's duration.
struct Ledger {
  std::map<std::string, SpanTotals> spans;
  std::uint64_t events = 0;
  std::uint64_t unmatched = 0;   ///< E without B, B without E, name mismatch
  std::uint64_t op_mismatch = 0; ///< child span whose op id differs from its op
  std::uint64_t dropped = 0;     ///< events lost to full tracer rings

  double TotalUs(const std::string& name) const;
  std::uint64_t Count(const std::string& name) const;
  double SelfSumUs() const;
};

/// Folds \p tracer's events (recording threads quiesced); a span's op id
/// must equal its parent's unless the parent is the root span.
Ledger FoldTrace(const p2drm::obs::Tracer& tracer);

/// The layer a span name belongs to in the printed ledger.
std::string LayerOf(const std::string& span_name);

struct LayerMetrics;

/// Prints the per-layer ledger, checks it reconciles with \p wall_s (the
/// separately clocked traced pass) and sets the "ledger.<layer>_pct"
/// self-time shares.
void ReportLedger(const Ledger& ledger, double wall_s, LayerMetrics* layers,
                  Result* result);

/// Registry lookups (0 when the metric was never registered).
std::uint64_t CounterValue(const std::vector<p2drm::obs::Registry::MetricValue>& agg,
                           const std::string& name);
std::int64_t GaugeValue(const std::vector<p2drm::obs::Registry::MetricValue>& agg,
                        const std::string& name);
/// Histogram sum (microseconds by convention).
std::uint64_t HistogramSum(const std::vector<p2drm::obs::Registry::MetricValue>& agg,
                           const std::string& name);

/// The i-th license id of a synthetic id stream keyed by \p key (a
/// SplitMix64 counter stream: cheap, uniform and reproducible).
p2drm::rel::LicenseId SyntheticId(std::uint64_t key, std::uint64_t i);

/// Moves every live thread of the process to the next deterministic
/// placement: the calling (client) thread first, then the others in
/// creation (thread id) order, thread i pinned alone to allowed CPU
/// (i + k) mod n on the k-th call. Threads started afterwards inherit the
/// client's CPU until the next call.
///
/// Why: on a shared host each vCPU drifts between a fast and a ~2x slower
/// state for seconds at a time, and left alone the scheduler stacks both
/// signer-pool workers on one vCPU for seconds. Pinning each thread to
/// its own CPU keeps the server's parallelism (stage overlap, signer
/// pool) in the measurement; rotating the assignment between segments of
/// a run spreads every role over all vCPUs. Callers move threads only
/// between timed spans and subtract PlacementSeconds() from their loops.
void RotatePlacement();

/// Seconds spent in RotatePlacement so far.
double PlacementSeconds();

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMib();

/// Total bytes of the regular files directly under \p dir.
std::uint64_t DirectoryBytes(const std::string& dir);

/// Removes every entry under \p dir (the directory itself stays).
void ClearDirectory(const std::string& dir);

/// Safe ratio: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// The per-layer metrics every workload reports, zero where the workload
/// bypasses the layer. Workloads fill the ones they exercise.
struct LayerMetrics {
  std::map<std::string, std::pair<double, std::string>> values;
  LayerMetrics();
  void Set(const std::string& name, double value);
  void EmitTo(Result* result) const;
};

/// Set-ups per untraced run, each after a placement move; setup_s is
/// their median.
constexpr int kSetups = 5;

/// What one measured pass produced.
struct Pass {
  double loop_s = 0;  ///< the op loop, placement moves excluded
  double pass_s = 0;  ///< the whole root span
  double ops = 0;     ///< ops in the workload's unit
  Fingerprint fingerprint;
};

/// One workload behind the shared run protocol of RunWorkload.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the state one pass consumes; timed as setup_s. \p tracer and
  /// \p registry are null except on the traced pass; set-up itself is
  /// never traced.
  virtual void SetUp(p2drm::obs::Tracer* tracer,
                     p2drm::obs::Registry* registry) = 0;
  /// Runs the measured work inside the pass's root span and returns the
  /// op count, the loop time (ops_per_s = ops / loop_s) and the exact
  /// counts. \p layers is set on the traced pass only.
  virtual Pass Run(LayerMetrics* layers, Result* result) = 0;
  /// Sets the workload's latency metrics (redeem_mean_ms, redeem_p90_ms)
  /// and its report-only figures.
  virtual void Report(Result* result) = 0;
  /// Fills the traced pass's per-layer metrics.
  virtual void Layers(const Ledger& ledger, const Pass& pass,
                      LayerMetrics* layers) = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// Runs a workload as the run's options ask. Untraced: kSetups timed
/// set-ups on fresh workloads, one measured pass on the last, end-to-end
/// metrics. Traced: an untraced and a traced pass on fresh workloads, a
/// check that both did the same exact work, the ledger and the per-layer
/// metrics, obs.trace_overhead_pct included.
void RunWorkload(const Options& options, const WorkloadFactory& make,
                 Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
