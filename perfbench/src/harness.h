// Shared machinery of the xflux benchmark: the run configuration, the
// result every workload fills in, latency sample sets, the span tracer, and
// the two taps through which the benchmark reaches the pipeline and the
// result display.
//
// The benchmark drives the engine only through its public entry points and
// times the calls into each layer from here.  An untraced run and a traced
// run make the same calls in the same order; the traced run additionally
// reads the clock at every layer boundary and records a span.

#ifndef XFLUX_PERFBENCH_HARNESS_H_
#define XFLUX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_sink.h"
#include "core/pipeline.h"
#include "core/result_display.h"
#include "util/status.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ToSeconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Minimal sizes, one pass, every oracle on.
  bool smoke = false;
  /// Scratch directory inside the checkout (input files, sockets, spans).
  std::string work_dir = ".";
};

/// One reported number.  `samples` is the count it was computed from.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// What a workload hands back: the correctness tally and its metrics.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Figures printed with the metrics but left out of the JSON result.
  std::map<std::string, Metric> info;
  std::vector<std::string> failures;  // first few, for the log

  /// Counts `count` checked operations; a false `ok` fails them all.
  void Check(bool ok, const std::string& what, uint64_t count = 1);
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// A set of latency samples in arrival order, split into passes, reported
/// as percentiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  /// Closes the current pass.
  void EndPass() { pass_ends_.push_back(values_.size()); }
  size_t size() const { return values_.size(); }

  /// The q-th percentile (nearest rank, q in [0, 1]; 0 when empty) of
  /// each window of consecutive passes that holds at least ten samples
  /// beyond it, reduced over the windows by BetterDecile.
  double Percentile(double q) const;
  /// True when at least ten samples lie beyond the q-th percentile — the
  /// condition for reporting it.
  bool Resolves(double q) const {
    return static_cast<double>(values_.size()) * (1.0 - q) >= 10.0;
  }

 private:
  std::vector<double> values_;
  std::vector<size_t> pass_ends_;
};

/// The end-to-end numbers a workload collects over its untraced passes.
struct EndToEnd {
  std::vector<double> setup_s;  // one per set-up
  /// The timed seconds of each part of the work, one sample per pass, and
  /// the source bytes of each part.  throughput_mb_s is the parts' bytes
  /// over the sum of their BetterDecile times; table2 has one part per
  /// query, so each query's time comes from the passes that caught the
  /// host fast, the other workloads one part.
  std::vector<std::vector<double>> part_s;
  std::vector<double> part_bytes;
  /// One sample per request, in groups; a latency figure is the geometric
  /// mean over the groups (table2 keeps one group per query, so that each
  /// query weighs the same).
  std::vector<Samples> latency_s = std::vector<Samples>(1);
  double peak_state_bytes = 0;

  void AddPart(size_t part, double bytes, double seconds) {
    if (part_s.size() <= part) {
      part_s.resize(part + 1);
      part_bytes.resize(part + 1);
    }
    part_bytes[part] = bytes;
    part_s[part].push_back(seconds);
  }
};

/// The layers a span can belong to.  Each is timed around the benchmark's
/// calls into one part of the engine.
enum class Layer : uint8_t {
  kXml,            // SaxParser::Feed/Finish, IngestFile
  kPipeline,       // Pipeline::Push*
  kDisplayApply,   // ResultDisplay::Accept
  kDisplayRender,  // LiveText / CurrentText
  kCompile,        // CompileQuery, QueryServer::Register
  kServerPush,     // QueryServer::PushBatch / Finish
  kServeFeed,      // ServeClient::FeedXml and the other sends
  kServeWait,      // waiting for a delta frame
  kCount,
};

const char* LayerName(Layer layer);

/// Records layer spans in memory and keeps per-layer self time.
///
/// A span's self time is its duration minus the time its child spans
/// cover.  Self times are exact for every span; the first kMaxSpans spans
/// are kept for the span file.  A disabled tracer does nothing — the
/// untraced runs pay one predicted branch per boundary.  One tracer per
/// thread.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 50000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// The request id stamped on spans begun from now on.
  void SetRequest(uint64_t request) { request_ = request; }

  void Begin(Layer layer) {
    if (enabled_) BeginSlow(layer);
  }
  void End() {
    if (enabled_) EndSlow();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
      tracer_->Begin(layer);
    }
    ~Scope() { tracer_->End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)];
  }
  /// Self time summed over the layers.
  uint64_t attributed_ns() const;
  uint64_t spans_seen() const { return spans_seen_; }
  size_t spans_kept() const { return spans_.size(); }

  /// Adds another tracer's self times and, up to the cap, its spans
  /// (per-thread tracers of one run).
  void Merge(const Tracer& other);

  /// Writes the kept spans, one JSON object per line.
  void WriteSpans(std::FILE* out) const;

 private:
  struct Open {
    Layer layer;
    uint64_t start_ns;
    uint64_t child_ns;
    int64_t span;  // index into spans_, or -1 when not kept
  };
  struct Span {
    Layer layer;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    uint64_t request;
  };

  void BeginSlow(Layer layer);
  void EndSlow();

  bool enabled_;
  uint64_t request_ = 0;
  uint64_t spans_seen_ = 0;
  uint64_t self_ns_[static_cast<size_t>(Layer::kCount)] = {};
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

/// Forwards parser output into a pipeline; each push is a pipeline span.
class PipelineFeeder : public xflux::EventSink {
 public:
  PipelineFeeder(xflux::Pipeline* pipeline, Tracer* tracer)
      : pipeline_(pipeline), tracer_(tracer) {}
  void Accept(xflux::Event event) override {
    Tracer::Scope span(tracer_, Layer::kPipeline);
    pipeline_->Push(std::move(event));
  }
  void AcceptBatch(xflux::EventBatch batch) override {
    Tracer::Scope span(tracer_, Layer::kPipeline);
    pipeline_->PushBatch(std::move(batch));
  }

 private:
  xflux::Pipeline* pipeline_;
  Tracer* tracer_;
};

/// The pipeline's sink: forwards every event to the result display, each
/// call a display-apply span.
class DisplayTap : public xflux::EventSink {
 public:
  DisplayTap(xflux::ResultDisplay* display, Tracer* tracer)
      : display_(display), tracer_(tracer) {}
  void Accept(xflux::Event event) override {
    ++events_;
    Tracer::Scope span(tracer_, Layer::kDisplayApply);
    display_->Accept(std::move(event));
  }
  void AcceptBatch(xflux::EventBatch batch) override {
    events_ += batch.size();
    Tracer::Scope span(tracer_, Layer::kDisplayApply);
    display_->AcceptBatch(std::move(batch));
  }
  uint64_t events() const { return events_; }

 private:
  xflux::ResultDisplay* display_;
  Tracer* tracer_;
  uint64_t events_ = 0;
};

/// One standing query, wired by WireSessionPipeline as QuerySession::Open
/// wires it with default options; the pipeline's sink is then a DisplayTap
/// in front of the display.
struct Session {
  std::unique_ptr<xflux::Pipeline> pipeline;
  xflux::StreamId source_id = 0;
  std::unique_ptr<xflux::ResultDisplay> display;
  std::unique_ptr<DisplayTap> tap;

  /// Worst of the pipeline's and the display's status.
  const xflux::Status& status() const {
    return pipeline->status().ok() ? display->status() : pipeline->status();
  }
  /// The live answer as a viewer reads it; a display-render span.
  const std::string& Render(Tracer* tracer) const {
    Tracer::Scope span(tracer, Layer::kDisplayRender);
    return display->LiveText();
  }
};

/// Compiles `query` into a Session (a compile span).  `instrumentation`
/// turns on the pipeline's per-stage StageStats.
xflux::StatusOr<std::unique_ptr<Session>> OpenSession(std::string_view query,
                                                      Tracer* tracer,
                                                      bool instrumentation);

/// Per-layer numbers a workload collects over its traced passes; turned
/// into the per-layer metrics by ReportLayers.
struct LayerTotals {
  Tracer tracer{true};
  /// Wall time (setup + run) of each span-traced pass, and of each
  /// untraced pass of the same work made in the same run.
  std::vector<double> traced_pass_s, untraced_pass_s;
  /// Per-stage self seconds (ops.<kind>.self_s, server.*_self_s) summed
  /// over the stage-timed passes; reported per pass.
  std::map<std::string, double> stage_sums;
  uint64_t stage_passes = 0;
  /// Counters summed over the span-traced passes; reported per pass.
  std::map<std::string, double> sums;
  /// Gauges reported as they are (high-water marks, ratios).
  std::map<std::string, double> gauges;
};

/// Adds a pipeline's per-stage self times to `layers->stage_sums` as
/// ops.<kind>.self_s, where the kind is the stage name up to its first '('
/// or space.
void AddStageSelfTimes(const xflux::StatsRegistry& stats,
                       LayerTotals* layers);

/// Adds a session's pipeline and display counters to `layers`.
void AddSessionCounters(const Session& session, LayerTotals* layers);

/// How one pass of a workload runs.
///  - untraced: `layers` is null and `tracer` disabled; the pass records
///    its end-to-end samples.
///  - span-traced: `tracer` records layer spans; the pass adds its
///    counters to `layers`.
///  - stage-timed: `stage_stats` turns on the engine's per-stage timers
///    (which slow every stage, so this pass's layer times are not used);
///    the pass adds only the per-stage self times to `layers`.
struct PassMode {
  Tracer* tracer;
  LayerTotals* layers;
  bool stage_stats;
};

/// The names and units of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Restricts this thread, and the threads it starts afterwards, to the CPU
/// that runs a fixed probe fastest right now, first waiting (half a second
/// at most) until it probes near the fastest speed seen in the run.  On a shared host a vCPU's speed depends on what shares its
/// physical core, and which vCPUs are slow changes every few seconds; a
/// pass placed on quiet ones measures the engine rather than its
/// neighbours.
void PinToQuietestCpu();

/// Runs passes of a workload until `config.seconds` have elapsed (one pass
/// in smoke mode).  `pass(mode)` runs the workload once and returns the
/// wall seconds of its set-up plus its timed part.  A traced run cycles
/// through an untraced, a span-traced and (unless `stage_pass` is false) a
/// stage-timed pass, so traced and untraced wall times can be compared for
/// the tracing overhead.
/// Every pass runs on the quietest CPU (PinToQuietestCpu).
template <typename Pass>
void RunPasses(const Config& config, LayerTotals* layers, Pass pass,
               bool stage_pass = true) {
  Tracer untraced(false);
  auto run = [&](const PassMode& mode) {
    PinToQuietestCpu();
    return pass(mode);
  };
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(config.seconds * 1e9);
  do {
    double wall = run(PassMode{&untraced, nullptr, false});
    if (config.trace) {
      layers->untraced_pass_s.push_back(wall);
      layers->traced_pass_s.push_back(
          run(PassMode{&layers->tracer, layers, false}));
      if (stage_pass) {
        run(PassMode{&untraced, layers, true});
        ++layers->stage_passes;
      }
    }
  } while (!config.smoke && NowNs() < deadline);
}

/// Fills `result` with the run's metrics: the per-layer ones (and the span
/// file `<work_dir>/spans-<workload>.jsonl`) in a traced run, else the
/// end-to-end ones.
void ReportRun(const Config& config, const EndToEnd& e2e,
               const LayerTotals& layers, Result* result);

// The four workloads.
Result RunTable2(const Config& config);
Result RunLiveUpdates(const Config& config);
Result RunQueryFleet(const Config& config);
Result RunServed(const Config& config);

}  // namespace perfbench

#endif  // XFLUX_PERFBENCH_HARNESS_H_
