// Workload `live_updates`: standing queries over an XMark stream with
// embedded updates — the paper's core claim (Section IV's state-adjustment
// wrapper, Section V's freeze/evict).  Closed loop, one thread, serial
// engine.
//
// The stream is built at set-up from the seeded document: a share of the
// location/quantity/payment texts become mutable regions, and after each
// item the generator interleaves one replacement update sR/eR aimed at an
// earlier region.  Replacements chain: the next update of a text targets the
// region that replaced it.  At most kWindow regions stay open; older ones
// are frozen, which bounds the state an update can reach.  Part of the
// replacements flip the "Albania" and "Cash" predicates.
//
// Within one item at most one of the two predicate texts (location,
// payment) is mutable: when both conditions of Q2's conjunction are
// replaced in one item, the engine's answer differs from the oracle on the
// current tree, and the workload is chosen so that no operation fails.
//
// Q2, Q5 and Q7 run as standing sessions fed by Pipeline::PushBatch, one
// after another over the whole stream.  A request is one update: pushing
// its bracket into a session plus the viewer's LiveText() refresh.  No XML
// is parsed while timing, so this workload is the no-change control for
// ingest work.  Oracle: the query over the serialized Materialize()d
// stream, computed once at set-up.

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "core/region_document.h"
#include "data/generators.h"
#include "harness.h"
#include "util/prng.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"
#include "xquery/engine.h"

namespace perfbench {

namespace {

using xflux::Event;
using xflux::EventBatch;
using xflux::EventKind;
using xflux::StreamId;

const char* const kQueries[] = {
    "X//item[location=\"Albania\"][payment=\"Cash\"]/location",
    "count(X//item[location=\"Albania\"]/ancestor::europe)",
    "<result>{ for $c in X//item where $c/location = \"Albania\" "
    "return <item>{ $c/quantity, $c/payment }</item> }</result>",
};

constexpr size_t kXmarkBytes = 160 * 1024;
constexpr size_t kSmokeBytes = 12 * 1024;
constexpr double kMutableShare = 0.3;     // of location/quantity/payment texts
constexpr size_t kWindow = 256;           // open mutable regions
constexpr int kSetupRepsPerPass = 20;  // spread over the run, see table2.cc

/// One piece of the stream: a run of plain events, or one update.
struct Piece {
  EventBatch events;
  bool update = false;
};

struct Stream {
  std::vector<Piece> pieces;
  size_t bytes = 0;  // source document plus replacement texts
  size_t updates = 0;
};

/// A mutable text region still open to updates.
struct OpenRegion {
  StreamId id;
  std::string tag;  // the element the text belongs to
};

std::string ReplacementText(const std::string& tag, xflux::Prng& prng) {
  static const std::vector<std::string> kLocations = {
      "Albania", "Germany", "France", "Japan", "Brazil", "Kenya", "Peru"};
  static const std::vector<std::string> kPayments = {
      "Cash", "Creditcard", "Money order", "Personal Check"};
  if (tag == "location") {
    return prng.Chance(0.5) ? "Albania" : prng.Pick(kLocations);
  }
  if (tag == "payment") return prng.Chance(0.5) ? "Cash" : prng.Pick(kPayments);
  return std::to_string(prng.Range(1, 9));
}

// Builds the update stream from the tokenized document (see file comment).
Stream BuildStream(const xflux::EventVec& tokens, size_t doc_bytes,
                   uint64_t seed) {
  xflux::Prng prng(seed * 7919 + 17);
  Stream stream;
  stream.bytes = doc_bytes;
  std::deque<OpenRegion> open;
  StreamId next_region = 1000;  // source ids stay below the pipeline's range
  std::string text_tag;         // tag whose text is current, if mutable kind
  bool item_has_predicate_region = false;
  EventBatch plain;
  auto flush_plain = [&] {
    if (plain.empty()) return;
    stream.pieces.push_back(Piece{std::move(plain), false});
    plain.clear();
  };
  for (const Event& e : tokens) {
    if (e.kind == EventKind::kStartElement) {
      std::string_view tag = e.tag_name();
      if (tag == "item") item_has_predicate_region = false;
      text_tag = tag == "location" || tag == "quantity" || tag == "payment"
                     ? std::string(tag)
                     : std::string();
    } else if (e.kind == EventKind::kCharacters && !text_tag.empty() &&
               prng.Chance(kMutableShare) &&
               (text_tag == "quantity" || !item_has_predicate_region)) {
      if (text_tag != "quantity") item_has_predicate_region = true;
      StreamId region = next_region++;
      plain.push_back(Event::StartMutable(e.id, region));
      Event text = e;
      text.id = region;
      plain.push_back(std::move(text));
      plain.push_back(Event::EndMutable(e.id, region));
      open.push_back(OpenRegion{region, text_tag});
      continue;
    } else if (e.kind == EventKind::kEndElement && e.tag_name() == "item") {
      plain.push_back(e);
      // One replacement of an earlier text: one request.
      if (!open.empty()) {
        OpenRegion& target = open[prng.Uniform(open.size())];
        StreamId fresh = next_region++;
        std::string text = ReplacementText(target.tag, prng);
        flush_plain();
        EventBatch update = {Event::StartReplace(target.id, fresh),
                             Event::Characters(fresh, text),
                             Event::EndReplace(target.id, fresh)};
        stream.pieces.push_back(Piece{std::move(update), true});
        stream.bytes += text.size();
        ++stream.updates;
        target.id = fresh;  // the chain continues from the replacement
      }
      // Evict: close the oldest regions to further updates.
      while (open.size() > kWindow) {
        plain.push_back(Event::Freeze(open.front().id));
        open.pop_front();
      }
      continue;
    }
    plain.push_back(e);
  }
  flush_plain();
  return stream;
}

// Streams the whole input through each of the three sessions in turn;
// returns the wall seconds of set-up plus the timed part.
double RunPass(const Stream& stream, const std::vector<std::string>& oracles,
               const PassMode& mode, EndToEnd* e2e, Result* result) {
  Tracer* tracer = mode.tracer;
  double setup_s = 0, run_s = 0;
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    // The quietest CPU changes within a pass: re-pick it for each session.
    PinToQuietestCpu();
    const uint64_t start = NowNs();
    auto opened = OpenSession(kQueries[qi], tracer, mode.stage_stats);
    if (!opened.ok()) {
      result->Check(false, std::string("compile: ") +
                               opened.status().ToString());
      continue;
    }
    Session& session = *opened.value();
    const uint64_t opened_at = NowNs();

    uint64_t timed_ns = 0;
    uint64_t request = 0;
    for (const Piece& piece : stream.pieces) {
      if (piece.update) tracer->SetRequest(++request);
      EventBatch batch = piece.events;  // copied outside the timed part
      const uint64_t t0 = NowNs();
      {
        Tracer::Scope span(tracer, Layer::kPipeline);
        session.pipeline->PushBatch(std::move(batch));
      }
      if (piece.update) session.Render(tracer);
      const uint64_t t1 = NowNs();
      timed_ns += t1 - t0;
      if (piece.update) e2e->latency_s[0].Add(ToSeconds(t1 - t0));
    }
    const uint64_t t0 = NowNs();
    const std::string answer = session.Render(tracer);
    timed_ns += NowNs() - t0;
    setup_s += ToSeconds(opened_at - start);
    run_s += ToSeconds(timed_ns);

    // Oracles, untimed: every update counts as one operation.
    auto full = session.display->FullRenderText();
    bool ok = session.status().ok() && session.display->render_status().ok() &&
              full.ok() && full.value() == answer && answer == oracles[qi];
    result->Check(ok,
                  std::string("answer of ") + kQueries[qi] + ": " +
                      session.status().ToString(),
                  stream.updates + 1);
    e2e->peak_state_bytes = std::max(
        e2e->peak_state_bytes,
        static_cast<double>(
            session.pipeline->context()->metrics()->MaxApproxStateBytes()));
    if (mode.stage_stats) {
      AddStageSelfTimes(*session.pipeline->context()->stats(), mode.layers);
    } else if (mode.layers != nullptr) {
      AddSessionCounters(session, mode.layers);
    } else {
      e2e->AddPart(qi, static_cast<double>(stream.bytes),
                   ToSeconds(timed_ns));
    }
  }

  if (mode.layers == nullptr) {
    e2e->latency_s[0].EndPass();
    e2e->setup_s.push_back(setup_s);
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      const uint64_t t0 = NowNs();
      for (const char* query : kQueries) {
        if (!OpenSession(query, tracer, false).ok()) break;
      }
      e2e->setup_s.push_back(ToSeconds(NowNs() - t0));
    }
  }
  return setup_s + run_s;
}

}  // namespace

Result RunLiveUpdates(const Config& config) {
  Result result;
  std::string doc = xflux::GenerateXmark(xflux::XmarkOptionsForBytes(
      config.smoke ? kSmokeBytes : kXmarkBytes, config.seed));
  auto tokens = xflux::SaxParser::Tokenize(doc);
  result.Check(tokens.ok(), "tokenize the source document");
  if (!tokens.ok()) return result;
  Stream stream = BuildStream(tokens.value(), doc.size(), config.seed);

  // The oracle: each query over the stream with every update applied.
  xflux::EventVec flat;
  for (const Piece& piece : stream.pieces) {
    flat.insert(flat.end(), piece.events.begin(), piece.events.end());
  }
  auto materialized = xflux::Materialize(flat);
  auto xml = materialized.ok() ? xflux::XmlSerializer::ToXml(
                                     materialized.value())
                               : xflux::StatusOr<std::string>(
                                     materialized.status());
  result.Check(xml.ok(), "materialize the update stream: " +
                             xml.status().ToString());
  if (!xml.ok()) return result;
  std::vector<std::string> oracles;
  for (const char* query : kQueries) {
    auto answer = xflux::RunQueryOnXml(query, xml.value());
    result.Check(answer.ok(), std::string("oracle for ") + query);
    oracles.push_back(answer.ok() ? answer.value() : std::string());
  }
  std::printf("live_updates: %zu-byte document, %zu stream events in %zu "
              "pieces, %zu updates\n",
              doc.size(), flat.size(), stream.pieces.size(), stream.updates);

  EndToEnd e2e;
  LayerTotals layers;
  RunPasses(config, &layers, [&](const PassMode& mode) {
    return RunPass(stream, oracles, mode, &e2e, &result);
  });
  ReportRun(config, e2e, layers, &result);
  return result;
}

}  // namespace perfbench
