#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>

#include "xquery/compiler.h"
#include "xquery/session_builder.h"

namespace perfbench {

void Result::Check(bool ok, const std::string& what, uint64_t count) {
  attempted += count;
  if (ok) return;
  failed += count;
  if (failures.size() < 10) failures.push_back(what);
}

namespace {

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(),
                                   values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2;
}

// The better decile of `values`: the 10th percentile when lower is better,
// the 90th when higher is.  The run-level estimator for every end-to-end
// timing (see DESIGN.md, "Steadiness"): the host alternates between a fast
// state and one up to 1.5x slower on a scale of seconds, and the share of
// slow time drifts from minute to minute, which moves a median but hardly
// the better decile.
double BetterDecile(std::vector<double> values, bool higher_is_better) {
  return NearestRank(std::move(values), higher_is_better ? 0.9 : 0.1);
}

}  // namespace

double Samples::Percentile(double q) const {
  const auto min_window = static_cast<size_t>(std::ceil(10.0 / (1.0 - q)));
  std::vector<double> per_window;
  size_t begin = 0;
  for (size_t end : pass_ends_) {
    if (end - begin < min_window) continue;  // extend over the next pass
    per_window.push_back(NearestRank(
        std::vector<double>(values_.begin() + static_cast<long>(begin),
                            values_.begin() + static_cast<long>(end)),
        q));
    begin = end;
  }
  if (per_window.empty()) return NearestRank(values_, q);
  return BetterDecile(per_window, /*higher_is_better=*/false);
}

// Reports setup_s, throughput_mb_s, latency_p50_ms, latency_p90_ms,
// peak_state_kb and peak_rss_mb, and latency_p99_ms as information: on a
// shared host the p99 moves by more than a regression bound between runs
// of the same code, the p90 does not.  Outside smoke mode a p90 with
// fewer than ten samples beyond it is a failed check: the run was too
// short to measure it.
static void ReportEndToEnd(const EndToEnd& e2e, bool smoke,
                           Result* result) {
  double log_p50 = 0, log_p90 = 0, log_p99 = 0;
  uint64_t samples = 0;
  for (const Samples& group : e2e.latency_s) {
    if (!smoke) {
      result->Check(group.Resolves(0.90),
                    "latency: fewer than ten samples beyond p90");
    }
    log_p50 += std::log(group.Percentile(0.50));
    log_p90 += std::log(group.Percentile(0.90));
    log_p99 += std::log(group.Percentile(0.99));
    samples += group.size();
  }
  const auto groups = static_cast<double>(e2e.latency_s.size());
  double bytes = 0, seconds = 0;
  size_t passes = 0;
  for (size_t i = 0; i < e2e.part_s.size(); ++i) {
    bytes += e2e.part_bytes[i];
    seconds += BetterDecile(e2e.part_s[i], /*higher_is_better=*/false);
    passes = std::max(passes, e2e.part_s[i].size());
  }
  result->Set("setup_s", BetterDecile(e2e.setup_s, false), "s",
              e2e.setup_s.size());
  result->Set("throughput_mb_s", seconds > 0 ? bytes / seconds / 1e6 : 0.0,
              "MB/s", passes);
  result->Set("latency_p50_ms", std::exp(log_p50 / groups) * 1e3, "ms",
              samples);
  result->Set("latency_p90_ms", std::exp(log_p90 / groups) * 1e3, "ms",
              samples);
  result->info["latency_p99_ms"] =
      Metric{std::exp(log_p99 / groups) * 1e3, "ms", samples};
  result->Set("peak_state_kb", e2e.peak_state_bytes / 1024.0, "KB");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KB on Linux.
  result->Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
              "MB");
}

namespace {

// A pass starts once its CPU probes within this factor of the fastest probe
// seen in the run, or after kMaxQuietWaitNs of waiting.
constexpr double kQuietSlowdown = 1.15;
constexpr uint64_t kMaxQuietWaitNs = 500 * 1000 * 1000;

// A fixed workload of about half a millisecond: random read-modify-writes
// over 1 MiB, so that it feels both a busy core and a thrashed L2.
uint64_t ProbeNs() {
  static std::vector<uint32_t> table(256 * 1024);
  const uint64_t start = NowNs();
  uint32_t x = 1;
  for (uint32_t i = 0; i < 100000; ++i) {
    x = x * 1103515245u + 12345u;
    table[x >> 14] += i;
  }
  volatile uint32_t sink = table[x >> 14];
  (void)sink;
  return NowNs() - start;
}

}  // namespace

void PinToQuietestCpu() {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
      }
    }
    return cpus;
  }();
  // The fastest probe seen in this run: the speed of an undisturbed CPU.
  static uint64_t undisturbed_ns = UINT64_MAX;
  if (allowed.size() <= 1) return;
  const uint64_t give_up = NowNs() + kMaxQuietWaitNs;
  std::vector<std::pair<uint64_t, int>> speed;
  for (;;) {
    speed.clear();
    for (int cpu : allowed) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
      uint64_t best = ProbeNs();
      for (int rep = 0; rep < 2; ++rep) best = std::min(best, ProbeNs());
      speed.emplace_back(best, cpu);
    }
    if (speed.empty()) return;
    std::sort(speed.begin(), speed.end());
    undisturbed_ns = std::min(undisturbed_ns, speed.front().first);
    // Wait, within limits, until a CPU runs near undisturbed speed.
    const double slowdown = static_cast<double>(speed.front().first) /
                            static_cast<double>(undisturbed_ns);
    if (slowdown <= kQuietSlowdown || NowNs() > give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(speed.front().second, &chosen);
  sched_setaffinity(0, sizeof(chosen), &chosen);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kXml: return "xml";
    case Layer::kPipeline: return "pipeline";
    case Layer::kDisplayApply: return "display.apply";
    case Layer::kDisplayRender: return "display.render";
    case Layer::kCompile: return "xquery.compile";
    case Layer::kServerPush: return "server.push";
    case Layer::kServeFeed: return "serve.feed";
    case Layer::kServeWait: return "serve.read_wait";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::BeginSlow(Layer layer) {
  ++spans_seen_;
  int64_t index = -1;
  if (spans_.size() < kMaxSpans) {
    index = static_cast<int64_t>(spans_.size());
    int64_t parent = stack_.empty() ? -1 : stack_.back().span;
    spans_.push_back(Span{layer, 0, 0, parent, request_});
  }
  uint64_t now = NowNs();
  if (index >= 0) spans_[static_cast<size_t>(index)].start_ns = now;
  stack_.push_back(Open{layer, now, 0, index});
}

void Tracer::EndSlow() {
  uint64_t now = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  uint64_t duration = now - open.start_ns;
  self_ns_[static_cast<size_t>(open.layer)] +=
      duration - std::min(duration, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.span >= 0) spans_[static_cast<size_t>(open.span)].end_ns = now;
}

uint64_t Tracer::attributed_ns() const {
  uint64_t sum = 0;
  for (uint64_t ns : self_ns_) sum += ns;
  return sum;
}

void Tracer::Merge(const Tracer& other) {
  for (size_t i = 0; i < static_cast<size_t>(Layer::kCount); ++i) {
    self_ns_[i] += other.self_ns_[i];
  }
  spans_seen_ += other.spans_seen_;
  const auto offset = static_cast<int64_t>(spans_.size());
  for (const Span& span : other.spans_) {
    if (spans_.size() >= kMaxSpans) break;
    spans_.push_back(span);
    if (span.parent >= 0) spans_.back().parent += offset;
  }
}

void Tracer::WriteSpans(std::FILE* out) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"request\":%llu}\n",
                 i, LayerName(s.layer),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
}

xflux::StatusOr<std::unique_ptr<Session>> OpenSession(std::string_view query,
                                                      Tracer* tracer,
                                                      bool instrumentation) {
  Tracer::Scope span(tracer, Layer::kCompile);
  auto compiled = xflux::CompileQuery(query);
  if (!compiled.ok()) return compiled.status();
  auto session = std::make_unique<Session>();
  session->pipeline = std::move(compiled.value().pipeline);
  session->source_id = compiled.value().source_id;
  xflux::QueryOptions options;
  options.instrumentation = instrumentation;
  session->display =
      xflux::WireSessionPipeline(session->pipeline.get(), options).display;
  session->tap = std::make_unique<DisplayTap>(session->display.get(), tracer);
  session->pipeline->SetSink(session->tap.get());
  return session;
}

namespace {

// Stage kinds the per-layer report breaks pipeline self time into; any
// other stage lands in "other".
const char* const kStageKinds[] = {
    "ancestor", "child",   "clone",  "concat", "construct", "contains",
    "count",    "descendant", "eq",  "for",    "literal",   "parent",
    "predicate", "sort",   "string", "text",   "where",     "other"};

std::string StageKind(const std::string& name) {
  if (!name.empty() && name[0] == '<') return "construct";
  std::string kind = name.substr(0, name.find_first_of("( "));
  for (const char* known : kStageKinds) {
    if (kind == known) return kind;
  }
  return "other";
}

}  // namespace

void AddStageSelfTimes(const xflux::StatsRegistry& stats,
                       LayerTotals* layers) {
  for (size_t i = 0; i < stats.size(); ++i) {
    const xflux::StageStats& stage = stats.stage(i);
    layers->stage_sums["ops." + StageKind(stage.name) + ".self_s"] +=
        ToSeconds(stage.self_ns());
  }
}

void AddSessionCounters(const Session& session, LayerTotals* layers) {
  const xflux::Metrics& m = *session.pipeline->context()->metrics();
  auto& sums = layers->sums;
  sums["pipeline.transformer_calls"] +=
      static_cast<double>(m.transformer_calls());
  sums["pipeline.adjust_calls"] += static_cast<double>(m.adjust_calls());
  sums["pipeline.state_clones"] += static_cast<double>(m.state_clones());
  sums["pipeline.state_shares"] += static_cast<double>(m.state_shares());
  sums["display.events"] += static_cast<double>(session.tap->events());
  sums["display.full_rescans"] +=
      static_cast<double>(session.display->full_rescans());
  sums["display.items"] += static_cast<double>(session.display->item_count());
  auto& gauges = layers->gauges;
  gauges["pipeline.max_live_states"] =
      std::max(gauges["pipeline.max_live_states"],
               static_cast<double>(m.max_live_states()));
  gauges["display.max_regions"] =
      std::max(gauges["display.max_regions"],
               static_cast<double>(m.max_display_regions()));
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto metrics = [] {
    std::vector<std::pair<std::string, std::string>> m{
        {"xml.parse_s", "s"},
        {"xml.bytes", "bytes"},
        {"xml.events", "count"},
        {"xml.bytes_scanned", "bytes"},
        {"xml.splice_bytes", "bytes"},
        {"pipeline.self_s", "s"},
        {"pipeline.transformer_calls", "count"},
        {"pipeline.adjust_calls", "count"},
        {"pipeline.state_clones", "count"},
        {"pipeline.state_shares", "count"},
        {"pipeline.max_live_states", "count"},
        {"pipeline.ns_per_call", "ns"},
    };
    for (const char* kind : kStageKinds) {
      m.push_back({std::string("ops.") + kind + ".self_s", "s"});
    }
    const std::pair<std::string, std::string> rest[] = {
        {"display.apply_s", "s"},
        {"display.render_s", "s"},
        {"display.events", "count"},
        {"display.full_rescans", "count"},
        {"display.max_regions", "count"},
        {"display.items", "count"},
        {"xquery.compile_s", "s"},
        {"server.push_s", "s"},
        {"server.prefix_self_s", "s"},
        {"server.suffix_self_s", "s"},
        {"server.prefix_nodes", "count"},
        {"server.prefix_hit_ratio", "ratio"},
        {"server.distinct_suffixes", "count"},
        {"serve.feed_s", "s"},
        {"serve.read_wait_s", "s"},
        {"serve.deltas", "count"},
        {"serve.delta_bytes", "bytes"},
        {"serve.admission_rejects", "count"},
        {"serve.timeouts", "count"},
        {"serve.max_shed_tier", "count"},
        {"trace.overhead_share", "ratio"},
        {"trace.unattributed_share", "ratio"},
    };
    m.insert(m.end(), std::begin(rest), std::end(rest));
    for (int q = 1; q <= 9; ++q) {
      std::string p = "q";
      p += std::to_string(q);
      m.push_back({p + ".s", "s"});
      m.push_back({p + ".parse_s", "s"});
      m.push_back({p + ".pipeline_s", "s"});
      m.push_back({p + ".display_s", "s"});
    }
    return m;
  }();
  return metrics;
}

// Fills every per-layer metric of `result` from `totals` (zero where the
// workload does not reach a layer).
static void ReportLayers(const LayerTotals& totals, Result* result) {
  const auto passes = static_cast<double>(totals.traced_pass_s.size());
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  std::map<std::string, double> values;
  const Tracer& t = totals.tracer;
  auto self_s = [&](Layer layer) {
    return ToSeconds(t.self_ns(layer)) * per_pass;
  };
  values["xml.parse_s"] = self_s(Layer::kXml);
  values["pipeline.self_s"] = self_s(Layer::kPipeline);
  values["display.apply_s"] = self_s(Layer::kDisplayApply);
  values["display.render_s"] = self_s(Layer::kDisplayRender);
  values["xquery.compile_s"] = self_s(Layer::kCompile);
  values["server.push_s"] = self_s(Layer::kServerPush);
  values["serve.feed_s"] = self_s(Layer::kServeFeed);
  values["serve.read_wait_s"] = self_s(Layer::kServeWait);
  for (const auto& [name, sum] : totals.stage_sums) {
    values[name] = sum / static_cast<double>(totals.stage_passes);
  }
  for (const auto& [name, sum] : totals.sums) values[name] = sum * per_pass;
  for (const auto& [name, value] : totals.gauges) values[name] = value;
  double calls = values["pipeline.transformer_calls"];
  if (calls > 0) {
    values["pipeline.ns_per_call"] = values["pipeline.self_s"] * 1e9 / calls;
  }

  // The wall time of the traced passes is what the layers must account for.
  double wall = 0;
  for (double s : totals.traced_pass_s) wall += s;
  if (wall > 0) {
    values["trace.unattributed_share"] =
        (wall - ToSeconds(t.attributed_ns())) / wall;
  }
  double untraced = Median(totals.untraced_pass_s);
  if (untraced > 0) {
    values["trace.overhead_share"] =
        Median(totals.traced_pass_s) / untraced - 1.0;
  }

  const auto samples = static_cast<uint64_t>(passes);
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    result->Set(name, it == values.end() ? 0.0 : it->second, unit, samples);
  }
}

void ReportRun(const Config& config, const EndToEnd& e2e,
               const LayerTotals& layers, Result* result) {
  if (!config.trace) {
    ReportEndToEnd(e2e, config.smoke, result);
    return;
  }
  ReportLayers(layers, result);
  std::string path = config.work_dir + "/spans-" + config.workload + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  layers.tracer.WriteSpans(out);
  std::fclose(out);
  std::printf("spans: %llu recorded, %zu written to %s\n",
              static_cast<unsigned long long>(layers.tracer.spans_seen()),
              layers.tracer.spans_kept(), path.c_str());
}

}  // namespace perfbench
