// Workload `served`: an in-process ServeServer on an AF_UNIX socket with
// one loop thread, and kClients client threads that each hold one session
// (X//author over a seeded book document) and subscribe to answer deltas.
// Closed loop: a client sends one kChunkBytes feed, waits for the delta it
// produced, then sends the next.  A request is one feed; its latency runs
// from the send to the delta's arrival at the client: frame encode and
// write, the server's read, parse, pipeline and delta encode, and the two
// thread wake-ups between client and server loop.  The chunks are large
// enough that the server's work, not the wake-ups, is most of a request.
// Set-up is server start, connect and open.  Oracle: the client's
// reconstructed answer against a direct QuerySession over the same
// document.

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "testing/traffic_gen.h"
#include "xquery/engine.h"

namespace perfbench {

namespace {

using xflux::Status;
using xflux::serve::FrameType;
using xflux::serve::ServeClient;
using xflux::serve::ServeServer;

constexpr char kQuery[] = "X//author";
constexpr int kClients = 2;
constexpr size_t kChunkBytes = 16 * 1024;
// One pass is one session per client of kFeedsPerPass feeds; a run holds
// as many passes as fit, each with its own server.
constexpr size_t kFeedsPerPass = 256;
constexpr size_t kSmokeFeeds = 4;
constexpr int kSetupRepsPerPass = 2;  // spread over the run, see table2.cc
constexpr int kDeltaTimeoutMs = 5000;
constexpr int kFinishTimeoutMs = 30000;

/// A running server with its loop thread; stops and joins on destruction.
class RunningServer {
 public:
  explicit RunningServer(const std::string& socket_path) {
    ServeServer::Options options;
    options.unix_path = socket_path;
    server_ = std::make_unique<ServeServer>(options);
    status_ = server_->Start();
    if (status_.ok()) loop_ = std::thread([this] { server_->Run(); });
  }
  ~RunningServer() { Stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  void Stop() {
    if (!loop_.joinable()) return;
    server_->Stop();
    loop_.join();
  }
  const Status& status() const { return status_; }
  ServeServer& server() { return *server_; }

 private:
  std::unique_ptr<ServeServer> server_;
  Status status_;
  std::thread loop_;  // declared last: joined before server_ is destroyed
};

/// One client's session: its input, what it measured, and how it ended.
struct ClientRun {
  const std::string* doc = nullptr;
  const std::string* oracle = nullptr;
  std::unique_ptr<ServeClient> client;
  Tracer tracer{false};
  Samples latency_s;
  uint64_t feeds = 0;
  uint64_t failed_feeds = 0;
  uint64_t delta_bytes = 0;
  uint64_t wall_ns = 0;  // first feed sent to the last delta received
  Status ending;
};

/// Connects and opens one session; the set-up a client pays.
Status Connect(const std::string& endpoint, ClientRun* run) {
  auto client = ServeClient::Connect(endpoint);
  if (!client.ok()) return client.status();
  run->client = std::move(client.value());
  return run->client->Open(kQuery);
}

/// Starts a server and opens kClients sessions on it; the set-up a pass
/// pays.  `runs` receives the connected clients.
Status SetUp(const std::string& socket_path,
             std::unique_ptr<RunningServer>* server,
             std::vector<ClientRun>* runs) {
  *server = std::make_unique<RunningServer>(socket_path);
  Status status = (*server)->status();
  for (ClientRun& run : *runs) {
    if (status.ok()) status = Connect((*server)->server().endpoint(), &run);
  }
  return status;
}

/// The client thread's body: feeds the document one chunk at a time, each
/// once the previous chunk's delta has arrived, then finishes the session.
void Drive(ClientRun* run) {
  ServeClient& c = *run->client;
  Tracer& tracer = run->tracer;
  std::string_view rest = *run->doc;
  Status status = c.Subscribe();
  const uint64_t start = NowNs();
  while (status.ok() && !rest.empty()) {
    // The last feed takes the remainder, so that every feed completes an
    // author element, changes the answer and draws a delta.
    const size_t size =
        rest.size() < 2 * kChunkBytes ? rest.size() : kChunkBytes;
    const uint64_t deltas = c.deltas_received();
    tracer.SetRequest(run->feeds);
    const uint64_t sent = NowNs();
    {
      Tracer::Scope span(&tracer, Layer::kServeFeed);
      status = c.FeedXml(rest.substr(0, size));
    }
    {
      // FeedXml drains what has already arrived, so the delta may be in;
      // a delta it drains is missing from delta_bytes.
      Tracer::Scope span(&tracer, Layer::kServeWait);
      while (status.ok() && c.deltas_received() == deltas) {
        auto frame = c.ReadFrame(kDeltaTimeoutMs);
        if (!frame.ok()) {
          status = frame.status();
        } else if (frame.value().type == FrameType::kDelta) {
          run->delta_bytes += frame.value().payload.size();
        } else if (frame.value().type != FrameType::kShedNotice) {
          status = Status::Internal("unexpected frame awaiting a delta");
        }
      }
    }
    run->latency_s.Add(ToSeconds(NowNs() - sent));
    ++run->feeds;
    if (!status.ok()) ++run->failed_feeds;
    rest.remove_prefix(size);
  }
  run->wall_ns = NowNs() - start;
  if (status.ok()) {
    Tracer::Scope span(&tracer, Layer::kServeFeed);
    status = c.SendFinish();
  }
  run->ending = status.ok() ? c.WaitFinished(kFinishTimeoutMs) : status;
}

double RunPass(const Config& config, const std::vector<std::string>& docs,
               const std::vector<std::string>& oracles, const PassMode& mode,
               EndToEnd* e2e, Result* result) {
  const std::string socket_path = config.work_dir + "/served.sock";
  std::vector<ClientRun> runs(kClients);
  for (int i = 0; i < kClients; ++i) {
    runs[i].doc = &docs[i];
    runs[i].oracle = &oracles[i];
    runs[i].tracer.set_enabled(mode.tracer->enabled());
  }
  std::unique_ptr<RunningServer> server;
  const uint64_t start = NowNs();
  Status status = SetUp(socket_path, &server, &runs);
  const uint64_t set_up = NowNs();
  result->Check(status.ok(), "server start, connect and open: " +
                                 status.ToString());
  if (!status.ok()) return 0;

  std::vector<std::thread> threads;
  for (ClientRun& run : runs) threads.emplace_back(Drive, &run);
  for (std::thread& t : threads) t.join();
  server->Stop();

  // Oracles and totals.
  double wall_s = 0, bytes = 0;
  for (ClientRun& run : runs) {
    result->Check(run.failed_feeds == 0, "feeds", run.feeds);
    const bool ok = run.ending.ok() && run.client->text() == *run.oracle;
    result->Check(ok, "served answer: " + run.ending.ToString());
    wall_s += ToSeconds(run.wall_ns);
    bytes += static_cast<double>(run.doc->size());
  }
  const xflux::Metrics& m = server->server().metrics();
  e2e->peak_state_bytes = std::max(
      e2e->peak_state_bytes, static_cast<double>(m.MaxApproxStateBytes()));

  if (mode.layers == nullptr) {
    for (ClientRun& run : runs) e2e->latency_s[0].Append(run.latency_s);
    e2e->latency_s[0].EndPass();
    // The clients feed side by side: their bytes over their mean wall time.
    e2e->AddPart(0, bytes, wall_s / kClients);
    e2e->setup_s.push_back(ToSeconds(set_up - start));
    server.reset();
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      std::vector<ClientRun> idle(kClients);
      const uint64_t t0 = NowNs();
      if (!SetUp(socket_path, &server, &idle).ok()) break;
      e2e->setup_s.push_back(ToSeconds(NowNs() - t0));
      server.reset();
    }
  } else {
    LayerTotals* layers = mode.layers;
    for (ClientRun& run : runs) {
      layers->tracer.Merge(run.tracer);
      layers->sums["serve.deltas"] +=
          static_cast<double>(run.client->deltas_received());
      layers->sums["serve.delta_bytes"] += static_cast<double>(run.delta_bytes);
      layers->gauges["serve.max_shed_tier"] =
          std::max(layers->gauges["serve.max_shed_tier"],
                   static_cast<double>(run.client->last_shed_tier()));
    }
    layers->sums["pipeline.transformer_calls"] +=
        static_cast<double>(m.transformer_calls());
    layers->sums["serve.admission_rejects"] +=
        static_cast<double>(m.admission_rejects());
    layers->sums["serve.timeouts"] +=
        static_cast<double>(m.session_timeouts());
    for (int tier = 1; tier <= 3; ++tier) {
      if (m.shed_tier(tier) > 0) {
        layers->gauges["serve.max_shed_tier"] =
            std::max(layers->gauges["serve.max_shed_tier"],
                     static_cast<double>(tier));
      }
    }
  }
  // The client threads' wall times, summed: what their spans account for.
  return ToSeconds(set_up - start) + wall_s;
}

}  // namespace

Result RunServed(const Config& config) {
  Result result;
  const size_t feeds = config.smoke ? kSmokeFeeds : kFeedsPerPass;
  std::vector<std::string> docs, oracles;
  for (int i = 0; i < kClients; ++i) {
    std::string doc = xflux::serve::MakeBookDocument(
        config.seed * 1000 + static_cast<uint64_t>(i), feeds * kChunkBytes);
    auto answer = xflux::RunQueryOnXml(kQuery, doc);
    result.Check(answer.ok(), "oracle");
    docs.push_back(std::move(doc));
    oracles.push_back(answer.ok() ? answer.value() : std::string());
  }
  std::printf("served: %d clients x %zu feeds of %zu bytes, closed loop\n",
              kClients, docs[0].size() / kChunkBytes, kChunkBytes);

  EndToEnd e2e;
  LayerTotals layers;
  RunPasses(
      config, &layers,
      [&](const PassMode& mode) {
        return RunPass(config, docs, oracles, mode, &e2e, &result);
      },
      /*stage_pass=*/false);
  ReportRun(config, e2e, layers, &result);
  return result;
}

}  // namespace perfbench
