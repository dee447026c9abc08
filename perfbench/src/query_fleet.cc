// Workload `query_fleet`: the 300-query Q1-shaped family
//
//   X//<region>//item[location="<loc>"]/<field>
//
// (6 regions x 10 locations x 5 fields) registered on one QueryServer,
// over one XMark file written at set-up and read through IngestFile
// (mmap'd windows adopted by SaxParser).  Closed loop, one thread, serial
// engine.  Set-up is the 300 Register calls; a request is one source batch
// through QueryServer::PushBatch, after which all 300 answers are current.
// Oracle: a standalone QuerySession for a seeded sample of the family.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "data/generators.h"
#include "harness.h"
#include "util/prng.h"
#include "xml/file_source.h"
#include "xml/sax_parser.h"
#include "xquery/engine.h"
#include "xquery/query_server.h"

namespace perfbench {

namespace {

constexpr size_t kXmarkBytes = 512 * 1024;
constexpr size_t kSmokeBytes = 12 * 1024;
constexpr size_t kOracleSample = 12;
constexpr int kSetupRepsPerPass = 3;  // spread over the run, see table2.cc

std::vector<std::string> QueryFamily() {
  const char* regions[] = {"africa",   "asia",     "australia",
                           "europe",   "namerica", "samerica"};
  const char* locations[] = {"United States", "Germany", "France", "Japan",
                             "Brazil",        "Kenya",   "India",  "Albania",
                             "Iceland",       "Peru"};
  const char* fields[] = {"location", "quantity", "name", "payment",
                          "shipping"};
  std::vector<std::string> family;
  for (const char* region : regions) {
    for (const char* loc : locations) {
      for (const char* field : fields) {
        family.push_back(std::string("X//") + region + "//item[location=\"" +
                         loc + "\"]/" + field);
      }
    }
  }
  return family;
}

/// Forwards parser batches into the server; each push is one request.
class ServerFeeder : public xflux::EventSink {
 public:
  ServerFeeder(xflux::QueryServer* server, Tracer* tracer, Samples* latency)
      : server_(server), tracer_(tracer), latency_(latency) {}
  void Accept(xflux::Event event) override {
    AcceptBatch(xflux::EventBatch{std::move(event)});
  }
  void AcceptBatch(xflux::EventBatch batch) override {
    tracer_->SetRequest(++batches_);
    const uint64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer_, Layer::kServerPush);
      server_->PushBatch(std::move(batch));
    }
    if (latency_ != nullptr) latency_->Add(ToSeconds(NowNs() - t0));
  }

 private:
  xflux::QueryServer* server_;
  Tracer* tracer_;
  Samples* latency_;  // null: not an end-to-end pass
  uint64_t batches_ = 0;
};

struct Fleet {
  std::vector<std::string> queries;
  std::string path;
  size_t file_bytes = 0;
  std::vector<size_t> sample;  // indices checked against the oracle
  std::vector<std::string> oracles;
};

// Registers the family on `server` (compile spans); false on failure.
bool RegisterAll(const Fleet& fleet, xflux::QueryServer* server,
                 Tracer* tracer, bool stage_stats, Result* result) {
  xflux::QueryOptions options;
  options.instrumentation = stage_stats;
  for (const std::string& query : fleet.queries) {
    Tracer::Scope span(tracer, Layer::kCompile);
    auto handle = server->Register(query, options);
    if (!handle.ok()) {
      result->Check(false, "register " + query + ": " +
                               handle.status().ToString());
      return false;
    }
  }
  return true;
}

void AddServerCounters(const xflux::QueryServer& server,
                       const xflux::SaxParser& parser, size_t file_bytes,
                       LayerTotals* layers) {
  const xflux::Metrics m = server.AggregateMetrics();
  const xflux::SaxParser::IngestStats& ingest = parser.ingest_stats();
  auto& sums = layers->sums;
  sums["xml.bytes"] += static_cast<double>(file_bytes);
  sums["xml.events"] += static_cast<double>(parser.events_emitted());
  sums["xml.bytes_scanned"] += static_cast<double>(ingest.bytes_scanned);
  sums["xml.splice_bytes"] += static_cast<double>(ingest.splice_bytes);
  sums["pipeline.transformer_calls"] +=
      static_cast<double>(m.transformer_calls());
  sums["pipeline.adjust_calls"] += static_cast<double>(m.adjust_calls());
  sums["pipeline.state_clones"] += static_cast<double>(m.state_clones());
  sums["pipeline.state_shares"] += static_cast<double>(m.state_shares());
  const xflux::QueryServer::SharingStats sharing = server.sharing();
  auto& gauges = layers->gauges;
  gauges["pipeline.max_live_states"] = static_cast<double>(m.max_live_states());
  gauges["display.max_regions"] = static_cast<double>(m.max_display_regions());
  gauges["server.prefix_nodes"] = static_cast<double>(sharing.prefix_nodes);
  gauges["server.prefix_hit_ratio"] = sharing.HitRatio();
  gauges["server.distinct_suffixes"] =
      static_cast<double>(sharing.distinct_suffixes);
}

// Splits the server's per-stage rows into shared-prefix and suffix time.
void AddServerStageTimes(const xflux::QueryServer& server,
                         LayerTotals* layers) {
  const xflux::StatsRegistry stats = server.BuildStats();
  uint64_t prefix_ns = 0, suffix_ns = 0;
  for (size_t i = 0; i < stats.size(); ++i) {
    const xflux::StageStats& stage = stats.stage(i);
    (stage.name.rfind("suffix/", 0) == 0 ? suffix_ns : prefix_ns) +=
        stage.self_ns();
  }
  layers->stage_sums["server.prefix_self_s"] += ToSeconds(prefix_ns);
  layers->stage_sums["server.suffix_self_s"] += ToSeconds(suffix_ns);
}

double RunPass(const Fleet& fleet, const PassMode& mode, EndToEnd* e2e,
               Result* result) {
  Tracer* tracer = mode.tracer;
  const bool end_to_end = mode.layers == nullptr;
  const uint64_t start = NowNs();
  xflux::QueryServer server;
  if (!RegisterAll(fleet, &server, tracer, mode.stage_stats, result)) return 0;
  const uint64_t registered = NowNs();

  ServerFeeder feeder(&server, tracer,
                      end_to_end ? &e2e->latency_s[0] : nullptr);
  xflux::SaxParser parser(xflux::SaxParser::Options(), &feeder);
  xflux::Status status;
  {
    Tracer::Scope span(tracer, Layer::kXml);
    auto ingested = xflux::IngestFile(fleet.path, &parser);
    status = ingested.ok() ? parser.Finish() : ingested.status();
  }
  {
    Tracer::Scope span(tracer, Layer::kServerPush);
    xflux::Status finished = server.Finish();
    if (status.ok()) status = finished;
  }
  const uint64_t end = NowNs();

  // Oracles, untimed: every handle must be healthy, the sample must match.
  result->Check(status.ok(), "ingest: " + status.ToString());
  size_t healthy = 0;
  for (size_t i = 0; i < server.query_count(); ++i) {
    if (server.handle(i)->status().ok()) {
      ++healthy;
    } else {
      result->Check(false, "handle " + fleet.queries[i] + ": " +
                               server.handle(i)->status().ToString());
    }
  }
  result->Check(true, "", healthy);
  for (size_t k = 0; k < fleet.sample.size(); ++k) {
    auto text = server.handle(fleet.sample[k])->CurrentText();
    result->Check(text.ok() && text.value() == fleet.oracles[k],
                  "answer of " + fleet.queries[fleet.sample[k]]);
  }
  e2e->peak_state_bytes = std::max(
      e2e->peak_state_bytes,
      static_cast<double>(server.AggregateMetrics().MaxApproxStateBytes()));
  if (mode.stage_stats) {
    AddServerStageTimes(server, mode.layers);
  } else if (!end_to_end) {
    AddServerCounters(server, parser, fleet.file_bytes, mode.layers);
  }

  const double setup_s = ToSeconds(registered - start);
  const double run_s = ToSeconds(end - registered);
  if (end_to_end) {
    e2e->latency_s[0].EndPass();
    e2e->setup_s.push_back(setup_s);
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      const uint64_t t0 = NowNs();
      xflux::QueryServer again;
      if (!RegisterAll(fleet, &again, tracer, false, result)) break;
      e2e->setup_s.push_back(ToSeconds(NowNs() - t0));
    }
    e2e->AddPart(0, static_cast<double>(fleet.file_bytes), run_s);
  }
  return setup_s + run_s;
}

}  // namespace

Result RunQueryFleet(const Config& config) {
  Result result;
  Fleet fleet;
  fleet.queries = QueryFamily();
  const std::string doc = xflux::GenerateXmark(xflux::XmarkOptionsForBytes(
      config.smoke ? kSmokeBytes : kXmarkBytes, config.seed));
  fleet.file_bytes = doc.size();
  fleet.path = config.work_dir + "/fleet-" + std::to_string(config.seed) +
               ".xml";
  std::FILE* out = std::fopen(fleet.path.c_str(), "wb");
  bool written = out != nullptr &&
                 std::fwrite(doc.data(), 1, doc.size(), out) == doc.size();
  if (out != nullptr) written = std::fclose(out) == 0 && written;
  result.Check(written, "write " + fleet.path);
  if (!written) return result;

  xflux::Prng prng(config.seed * 104729 + 3);
  const size_t sample = config.smoke ? 3 : kOracleSample;
  for (size_t k = 0; k < sample; ++k) {
    size_t index = prng.Uniform(fleet.queries.size());
    auto answer = xflux::RunQueryOnXml(fleet.queries[index], doc);
    result.Check(answer.ok(), "oracle for " + fleet.queries[index]);
    fleet.sample.push_back(index);
    fleet.oracles.push_back(answer.ok() ? answer.value() : std::string());
  }
  std::printf("query_fleet: %zu queries over a %zu-byte file, %zu sampled\n",
              fleet.queries.size(), fleet.file_bytes, fleet.sample.size());

  EndToEnd e2e;
  LayerTotals layers;
  RunPasses(config, &layers, [&](const PassMode& mode) {
    return RunPass(fleet, mode, &e2e, &result);
  });
  std::remove(fleet.path.c_str());
  ReportRun(config, e2e, layers, &result);
  return result;
}

}  // namespace perfbench
