/// \file probe.cpp
/// Per-layer probe for the repo benchmark (perfbench/run.py --trace 1).
///
/// Times the public entry point of each layer from outside — scenario
/// resolution, engine construction, BFS tree, FindShortcut and its core
/// steps, shortcut quality and persistence, graph bundles, Boruvka MST,
/// the apps, and the report driver — on one workload's graph, and attaches
/// the deterministic engine counters (`Network::total_*` deltas or returned
/// `PhaseStats`) to each timing. Every timed call is recorded as a span
/// (name, start, end, parent, workload, counters) and the spans are printed
/// with the metrics as one JSON document on stdout; run.py merges them into
/// the Chrome trace file.
///
///     lcs_probe --workload=shortcut-er --spec=er:n=3000,deg=8
///               --pipeline=shortcut --quarter-spec=er:n=750,deg=8
///               --components-spec=er:n=500,deg=8
///               --aggregate-spec=ktree:n=1000,k=4
///               --render-spec=er:n=1000,deg=8 --work-dir=DIR
///
/// `--pipeline` names the workload's own algorithm (BFS + find for
/// `shortcut`, BFS + Boruvka for `mst`). Its rounds and messages are printed
/// so run.py can check them against the end-to-end run on the same spec.
/// The tracing overhead is the cost of one span, timed directly, times the
/// spans the pipeline records, over the pipeline's wall time.
///
/// The engine runs sequentially (threads = 1) with CONGEST validation off,
/// matching the benchmark's end-to-end lcs_run settings.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/aggregate.h"
#include "apps/components.h"
#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "driver/run_driver.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "mst/boruvka_shortcut.h"
#include "scenario/scenario.h"
#include "shortcut/core_fast.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/persist.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_routing.h"
#include "shortcut/verification.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"
#include "util/check.h"
#include "util/json_writer.h"
#include "util/random.h"

namespace {

using namespace lcs;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::string spec;
  std::string pipeline = "shortcut";
  std::string quarter_spec;
  std::string components_spec;
  std::string aggregate_spec;
  std::string render_spec;
  std::string work_dir = ".";
};

/// lcs_run's default seed: the end-to-end runs the probe is checked
/// against use it.
constexpr std::uint64_t kSeed = 1;
/// Calls behind each median-of-calls timing.
constexpr int kReps = 5;

// ------------------------------------------------------------------ spans --

struct Span {
  std::string name;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::pair<std::string, double>> counters;
};

/// In-memory span recorder. Spans nest through an open-span stack.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  std::size_t size() const { return spans_.size(); }

  int begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id, std::vector<std::pair<std::string, double>> counters = {}) {
    LCS_CHECK(!open_.empty() && open_.back() == id, "span closed out of order");
    open_.pop_back();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    s.counters = std::move(counters);
  }

  void write(JsonWriter& w, const std::string& workload) const {
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("parent", static_cast<std::int64_t>(s.parent));
      w.kv("workload", workload);
      w.kv("start_us", std::chrono::duration<double, std::micro>(s.start - origin_).count());
      w.kv("dur_us", std::chrono::duration<double, std::micro>(s.end - s.start).count());
      w.key("counters").begin_object();
      for (const auto& [k, v] : s.counters) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  void write(JsonWriter& w) const {
    w.begin_object();
    for (const Metric& m : list_) {
      w.key(m.name).begin_object();
      w.kv("value", m.value);
      w.kv("unit", m.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  std::vector<Metric> list_;
};

/// Deterministic values run.py checks against the end-to-end run.
using Checks = std::vector<std::pair<std::string, std::int64_t>>;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  LCS_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Median wall time (ms) of `reps` calls of `fn`, recorded as one span.
double timed_median(Tracer& tr, const std::string& name,
                    const std::function<void()>& fn) {
  const int id = tr.begin(name);
  std::vector<double> samples;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(elapsed_ms(t0));
  }
  const double med = median(samples);
  tr.end(id, {{"reps", kReps}, {"median_ms", med}});
  return med;
}

/// Cost (us) of one traced step's span — a begin and an end with two
/// counters, as measure() records it — as the median over kReps batches of
/// 10,000 spans on a scratch tracer.
double span_cost_us() {
  constexpr int kBatch = 10000;
  std::vector<double> per_span;
  for (int i = 0; i < kReps; ++i) {
    Tracer scratch(Clock::now());
    const auto t0 = Clock::now();
    for (int j = 0; j < kBatch; ++j) {
      scratch.end(scratch.begin("shortcut.find"),
                  {{"rounds", 1.0}, {"messages", 1.0}});
    }
    per_span.push_back(1000.0 * elapsed_ms(t0) / kBatch);
  }
  return median(per_span);
}

// ----------------------------------------------------------------- engine --

congest::Network make_network(const Graph& g) {
  congest::Network net(g);
  net.set_validate(false);
  net.set_threads(1);
  return net;
}

/// Engine counter delta across one call.
struct Delta {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  double ms = 0.0;
};

template <class Fn>
Delta measure(congest::Network& net, Tracer& tr, const std::string& name,
              Fn&& fn) {
  const std::int64_t r0 = net.total_rounds();
  const std::int64_t m0 = net.total_messages();
  const int id = tr.begin(name);
  const auto t0 = Clock::now();
  fn();
  Delta d;
  d.ms = elapsed_ms(t0);
  d.rounds = net.total_rounds() - r0;
  d.messages = net.total_messages() - m0;
  tr.end(id, {{"rounds", static_cast<double>(d.rounds)},
              {"messages", static_cast<double>(d.messages)}});
  return d;
}

/// Reference flood from node 0 (each node forwards the token once to every
/// neighbor it did not hear it from): the engine's own per-message and
/// per-round cost with the thinnest possible process on top — the
/// denominator of the shortcut overhead ratio.
class FloodProcess final : public congest::Process {
 public:
  explicit FloodProcess(NodeId id) : id_(id) {}

  void on_start(congest::Context& ctx) override {
    heard_ = id_ == 0;  // processes are reused across phases
    if (id_ != 0) return;
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.edge, congest::Message(1));
  }

  void on_round(congest::Context& ctx,
                std::span<const congest::Incoming> inbox) override {
    if (heard_ || inbox.empty()) return;
    heard_ = true;
    for (const auto& nb : ctx.neighbors()) {
      const bool from_sender =
          std::any_of(inbox.begin(), inbox.end(), [&](const congest::Incoming& in) {
            return in.edge == nb.edge;
          });
      if (!from_sender) ctx.send(nb.edge, congest::Message(1));
    }
  }

 private:
  NodeId id_;
  bool heard_ = false;
};

struct PipelineResult {
  Delta bfs;
  Delta algo;
  std::optional<SpanningTree> tree;
  std::optional<FindShortcutResult> found;
  std::optional<DistributedMst> mst;
  double wall_ms = 0.0;
  std::size_t spans = 0;  // spans the pipeline recorded
};

/// BFS tree + the workload's algorithm on a fresh engine, each step a span
/// under "pipeline".
PipelineResult run_pipeline(const scenario::Scenario& sc, const Options& o,
                            Tracer& tr) {
  PipelineResult res;
  const std::size_t spans0 = tr.size();
  const auto t0 = Clock::now();
  const int id = tr.begin("pipeline." + o.pipeline);
  congest::Network net = make_network(sc.graph);
  res.bfs = measure(net, tr, "tree.bfs",
                    [&] { res.tree.emplace(build_bfs_tree(net, /*root=*/0)); });
  if (o.pipeline == "shortcut") {
    FindShortcutParams params;
    params.seed = kSeed;
    res.algo = measure(net, tr, "shortcut.find", [&] {
      res.found.emplace(
          find_shortcut_doubling(net, *res.tree, sc.partition, params));
    });
  } else {
    ShortcutMstOptions opts;
    opts.seed = kSeed;
    res.algo = measure(net, tr, "mst.boruvka", [&] {
      res.mst.emplace(mst_boruvka_shortcut(net, *res.tree, opts));
    });
  }
  res.wall_ms = elapsed_ms(t0);
  tr.end(id, {{"rounds", static_cast<double>(res.algo.rounds)},
              {"messages", static_cast<double>(res.algo.messages)}});
  res.spans = tr.size() - spans0;
  return res;
}

double us_per(double ms, std::int64_t count) {
  return count > 0 ? 1000.0 * ms / static_cast<double>(count) : 0.0;
}

// --------------------------------------------------------------- sections --

void probe_find(const scenario::Scenario& sc, const SpanningTree& tree,
                const Options& o, Tracer& tr, Metrics& m,
                const FindShortcutResult& found, const Delta& find,
                double flood_us_per_msg) {
  m.add("shortcut.find_ms", find.ms, "ms");
  m.add("shortcut.find_rounds", static_cast<double>(find.rounds), "count");
  m.add("shortcut.find_messages", static_cast<double>(find.messages), "count");
  m.add("shortcut.find_trials", found.stats.trials, "count");
  m.add("shortcut.find_iterations", found.stats.iterations, "count");
  const double per_msg = us_per(find.ms, find.messages);
  const double per_round = us_per(find.ms, find.rounds);
  m.add("shortcut.find_us_per_msg", per_msg, "us");
  m.add("shortcut.find_us_per_round", per_round, "us");
  m.add("shortcut.overhead_ratio", per_msg / flood_us_per_msg, "ratio");

  // Phase scaling: the same construction on the n/4 instance of the family.
  const scenario::Scenario quarter = scenario::make_scenario(o.quarter_spec);
  congest::Network qnet = make_network(quarter.graph);
  const SpanningTree qtree = build_bfs_tree(qnet, /*root=*/0);
  FindShortcutParams params;
  params.seed = kSeed;
  const Delta qfind = measure(qnet, tr, "shortcut.find_quarter", [&] {
    (void)find_shortcut_doubling(qnet, qtree, quarter.partition, params);
  });
  m.add("shortcut.round_cost_scaling", per_round / us_per(qfind.ms, qfind.rounds),
        "ratio");

  // One direct call of each step inside find, at the winning trial's (c, b),
  // on a fresh engine over the same BFS tree.
  congest::Network net = make_network(sc.graph);
  const std::int32_t c = found.stats.used_c;
  const std::int32_t b = found.stats.used_b;
  const double gamma = FindShortcutParams{}.gamma;
  std::optional<CoreResult> core;
  const Delta d_core = measure(net, tr, "shortcut.core_fast", [&] {
    core.emplace(core_fast(net, tree, sc.partition.part_of,
                           CoreFastParams{c, gamma, hash64(kSeed, 1)}));
  });
  const ShortcutState tentative =
      compute_shortcut_state(net, tree, sc.partition, std::move(core->shortcut));
  const NeighborParts neighbor_parts = exchange_neighbor_parts(net, sc.partition);
  const Delta d_verify = measure(net, tr, "shortcut.verify", [&] {
    (void)verify_block_parameter(net, tree, sc.partition, tentative, 3 * b,
                                 neighbor_parts);
  });

  // Routing steps with trivial payloads: the cost measured is the routing.
  const ShortcutState& state = found.state;
  SuperstepHooks hooks;
  hooks.contribution = [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); };
  hooks.combine = [](std::uint64_t a, std::uint64_t x) { return std::min(a, x); };
  hooks.identity = ~std::uint64_t{0};
  hooks.on_aggregate = [](NodeId, PartId, std::uint64_t) {};
  const Delta d_super = measure(net, tr, "shortcut.superstep", [&] {
    run_superstep(net, tree, sc.partition, state, neighbor_parts, hooks);
  });
  congest::PhaseStats bc{};
  const Delta d_bcast = measure(net, tr, "shortcut.broadcast", [&] {
    bc = run_component_broadcast(
        net, tree, state.shortcut,
        [](NodeId root, PartId) { return static_cast<std::uint64_t>(root); },
        [](NodeId, PartId, std::uint64_t, std::int32_t) {});
  });
  congest::PhaseStats cc{};
  const Delta d_conv = measure(net, tr, "shortcut.convergecast", [&] {
    cc = run_component_convergecast(
        net, tree, state.shortcut, state.root_depth_on_edge,
        [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); },
        [](std::uint64_t a, std::uint64_t x) { return std::min(a, x); },
        [](NodeId, PartId, std::uint64_t) {});
  });
  LCS_CHECK(bc.rounds == d_bcast.rounds && cc.rounds == d_conv.rounds,
            "routing PhaseStats disagree with the engine totals");
  const std::pair<const char*, const Delta*> steps[] = {
      {"core_fast", &d_core}, {"verify", &d_verify}, {"superstep", &d_super},
      {"broadcast", &d_bcast}, {"convergecast", &d_conv}};
  for (const auto& [name, d] : steps) {
    const std::string prefix = std::string("shortcut.") + name;
    m.add(prefix + "_ms", d->ms, "ms");
    m.add(prefix + "_rounds", static_cast<double>(d->rounds), "count");
    m.add(prefix + "_messages", static_cast<double>(d->messages), "count");
  }
}

void probe_quality_and_persist(const scenario::Scenario& sc,
                               const SpanningTree& tree, Tracer& tr, Metrics& m,
                               const FindShortcutResult& found,
                               const Delta& find, Checks& checks) {
  const Shortcut& s = found.state.shortcut;
  std::int32_t cong = 0, block = 0, dil = 0;
  m.add("shortcut.quality_ms",
        timed_median(tr, "shortcut.quality", [&] {
          cong = congestion(sc.graph, sc.partition, s);
          block = block_parameter(sc.graph, sc.partition, s);
          dil = dilation_estimate(sc.graph, sc.partition, s);
        }),
        "ms");
  checks.emplace_back("congestion", cong);
  checks.emplace_back("block_parameter", block);
  checks.emplace_back("dilation_estimate", dil);

  ShortcutRunRecord rec;
  rec.spec_hash = driver::spec_hash(sc.spec);
  rec.partition_hash = driver::partition_hash(sc.partition);
  rec.seed = kSeed;
  rec.backend = "hiz16";
  rec.tree = tree;
  rec.shortcut = s;
  rec.stats = found.stats;
  rec.algo_rounds = find.rounds;
  rec.algo_messages = find.messages;
  std::string bytes;
  m.add("shortcut.record_encode_ms",
        timed_median(tr, "shortcut.record_encode",
                     [&] { bytes = encode_shortcut_record(rec); }),
        "ms");
  std::int64_t decoded_messages = 0;
  m.add("shortcut.record_decode_ms",
        timed_median(tr, "shortcut.record_decode", [&] {
          decoded_messages =
              decode_shortcut_record(bytes, sc.graph, rec.spec_hash,
                                     rec.partition_hash, rec.backend)
                  .algo_messages;
        }),
        "ms");
  LCS_CHECK(decoded_messages == find.messages, "record round trip lost accounting");
}

void probe_bundle(const scenario::Scenario& sc, const Options& o, Tracer& tr,
                  Metrics& m) {
  const std::string path = o.work_dir + "/probe-bundle.lcsg";
  const std::vector<BundleSection> sections = {
      {kSectionPartition, encode_partition(sc.partition)},
      {kSectionMeta, encode_bundle_meta({sc.spec, sc.family})}};
  m.add("graph.bundle_save_ms",
        timed_median(tr, "graph.bundle_save",
                     [&] { save_binary_bundle(sc.graph, sections, path); }),
        "ms");
  EdgeId loaded_edges = 0;
  m.add("graph.bundle_load_ms",
        timed_median(tr, "graph.bundle_load", [&] {
          loaded_edges = load_binary_bundle(path).graph.num_edges();
        }),
        "ms");
  LCS_CHECK(loaded_edges == sc.graph.num_edges(), "bundle round trip lost edges");
}

void probe_mst(const Delta& d, Metrics& m) {
  m.add("mst.boruvka_ms", d.ms, "ms");
  m.add("mst.boruvka_rounds", static_cast<double>(d.rounds), "count");
  m.add("mst.boruvka_messages", static_cast<double>(d.messages), "count");
  m.add("mst.us_per_round", us_per(d.ms, d.rounds), "us");
  m.add("mst.us_per_msg", us_per(d.ms, d.messages), "us");
}

void probe_apps(const Options& o, Tracer& tr, Metrics& m) {
  // Components with the driver's default failure model: a quarter of the
  // edges fail, drawn from the run seed.
  const scenario::Scenario comp = scenario::make_scenario(o.components_spec);
  {
    congest::Network net = make_network(comp.graph);
    const SpanningTree tree = build_bfs_tree(net, /*root=*/0);
    Rng rng(kSeed);
    std::vector<bool> alive(static_cast<std::size_t>(comp.graph.num_edges()));
    for (std::size_t e = 0; e < alive.size(); ++e) alive[e] = !rng.next_bool(0.25);
    const Delta d = measure(net, tr, "apps.components", [&] {
      (void)distributed_components(net, tree, alive, kSeed);
    });
    m.add("apps.components_ms", d.ms, "ms");
  }
  const scenario::Scenario agg = scenario::make_scenario(o.aggregate_spec);
  {
    congest::Network net = make_network(agg.graph);
    const SpanningTree tree = build_bfs_tree(net, /*root=*/0);
    FindShortcutParams params;
    params.seed = kSeed;
    const Delta d = measure(net, tr, "apps.aggregate", [&] {
      PartAggregator aggregator(net, tree, agg.partition, params);
      (void)aggregator.leaders();
    });
    m.add("apps.aggregate_ms", d.ms, "ms");
  }
}

/// `run_document` rendering a shortcut report from a cached record: the
/// serve path's record-hit cost minus framing and the cache lookup.
void probe_render(const Options& o, Tracer& tr, Metrics& m) {
  auto sc = std::make_shared<const scenario::Scenario>(
      scenario::make_scenario(o.render_spec));
  std::shared_ptr<const ShortcutRunRecord> record;
  driver::RunHooks hooks;
  hooks.resolve_scenario = [&sc](const std::string&) { return sc; };
  hooks.find_shortcut_record = [&record](const driver::ShortcutCacheKey&,
                                         const scenario::Scenario&) {
    return record;
  };
  hooks.store_shortcut_record =
      [&record](const driver::ShortcutCacheKey&, const scenario::Scenario&,
                const std::shared_ptr<const ShortcutRunRecord>& r) { record = r; };
  driver::RunOptions ro;
  ro.algo = "shortcut";
  ro.scenario = o.render_spec;
  ro.seed = kSeed;
  ro.timing = false;
  std::string cold;
  LCS_CHECK(driver::run_document(ro, hooks, cold) == 0, "cold render failed");
  LCS_CHECK(record != nullptr, "cold render stored no record");
  std::string warm;
  m.add("driver.render_ms",
        timed_median(tr, "driver.render", [&] {
          warm.clear();
          LCS_CHECK(driver::run_document(ro, hooks, warm) == 0, "render failed");
        }),
        "ms");
  LCS_CHECK(warm == cold, "record-hit render differs from the cold render");
}

// ------------------------------------------------------------------- main --

bool take_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    if (take_value(argv[i], "--workload", o.workload)) continue;
    if (take_value(argv[i], "--spec", o.spec)) continue;
    if (take_value(argv[i], "--pipeline", o.pipeline)) continue;
    if (take_value(argv[i], "--quarter-spec", o.quarter_spec)) continue;
    if (take_value(argv[i], "--components-spec", o.components_spec)) continue;
    if (take_value(argv[i], "--aggregate-spec", o.aggregate_spec)) continue;
    if (take_value(argv[i], "--render-spec", o.render_spec)) continue;
    if (take_value(argv[i], "--work-dir", o.work_dir)) continue;
    LCS_CHECK(false, std::string("unknown option '") + argv[i] + "'");
  }
  LCS_CHECK(!o.spec.empty() && !o.quarter_spec.empty() &&
                !o.components_spec.empty() && !o.aggregate_spec.empty() &&
                !o.render_spec.empty(),
            "--spec, --quarter-spec, --components-spec, --aggregate-spec and "
            "--render-spec are required");
  LCS_CHECK(o.pipeline == "shortcut" || o.pipeline == "mst",
            "--pipeline must be shortcut or mst");
  return o;
}

int run(const Options& o) {
  const auto origin = Clock::now();
  Tracer tr(origin);
  Metrics m;
  Checks checks;

  const int root = tr.begin("probe");
  std::optional<scenario::Scenario> sc;
  m.add("scenario.resolve_ms",
        timed_median(tr, "scenario.resolve",
                     [&] { sc.emplace(scenario::make_scenario(o.spec)); }),
        "ms");
  m.add("congest.network_init_ms",
        timed_median(tr, "congest.network_init",
                     [&] { (void)make_network(sc->graph); }),
        "ms");

  // Reference flood: repeat until 200 ms of engine time is accumulated.
  double flood_us_per_msg = 0.0;
  {
    congest::Network net = make_network(sc->graph);
    std::vector<FloodProcess> procs;
    procs.reserve(static_cast<std::size_t>(sc->graph.num_nodes()));
    for (NodeId v = 0; v < sc->graph.num_nodes(); ++v) procs.emplace_back(v);
    const int id = tr.begin("congest.flood");
    std::vector<double> per_msg, per_round;
    double total_ms = 0.0;
    congest::PhaseStats last{};
    while (per_msg.size() < 5 || total_ms < 200.0) {
      const auto t0 = Clock::now();
      last = congest::run_phase(net, procs);
      const double ms = elapsed_ms(t0);
      total_ms += ms;
      per_msg.push_back(us_per(ms, last.messages));
      per_round.push_back(us_per(ms, last.rounds));
    }
    flood_us_per_msg = median(per_msg);
    tr.end(id, {{"rounds", static_cast<double>(last.rounds)},
                {"messages", static_cast<double>(last.messages)},
                {"reps", static_cast<double>(per_msg.size())}});
    m.add("congest.flood_us_per_msg", flood_us_per_msg, "us");
    m.add("congest.flood_us_per_round", median(per_round), "us");
  }

  // The workload's pipeline. Comparing it with an untraced pass would
  // measure the host's drift, not its few spans, so the overhead is the
  // directly timed span cost times the spans it recorded.
  PipelineResult pipeline = run_pipeline(*sc, o, tr);
  m.add("trace.overhead_pct",
        100.0 * static_cast<double>(pipeline.spans) * span_cost_us() /
            (1000.0 * pipeline.wall_ms),
        "%");
  m.add("tree.bfs_ms", pipeline.bfs.ms, "ms");
  m.add("tree.bfs_rounds", static_cast<double>(pipeline.bfs.rounds), "count");
  m.add("tree.bfs_messages", static_cast<double>(pipeline.bfs.messages), "count");
  checks.emplace_back("rounds", pipeline.algo.rounds);
  checks.emplace_back("messages", pipeline.algo.messages);

  // Whichever of find / Boruvka the pipeline did not run, run now.
  Delta find = pipeline.algo;
  if (!pipeline.found) {
    congest::Network net = make_network(sc->graph);
    const SpanningTree t = build_bfs_tree(net, /*root=*/0);
    FindShortcutParams params;
    params.seed = kSeed;
    find = measure(net, tr, "shortcut.find", [&] {
      pipeline.found.emplace(find_shortcut_doubling(net, t, sc->partition, params));
    });
  }
  Delta boruvka = pipeline.algo;
  if (!pipeline.mst) {
    congest::Network net = make_network(sc->graph);
    const SpanningTree t = build_bfs_tree(net, /*root=*/0);
    ShortcutMstOptions opts;
    opts.seed = kSeed;
    boruvka = measure(net, tr, "mst.boruvka", [&] {
      pipeline.mst.emplace(mst_boruvka_shortcut(net, t, opts));
    });
  }
  checks.emplace_back("find_rounds", find.rounds);
  checks.emplace_back("find_messages", find.messages);
  checks.emplace_back("boruvka_rounds", boruvka.rounds);
  checks.emplace_back("boruvka_messages", boruvka.messages);
  checks.emplace_back("mst_weight", pipeline.mst->total_weight);
  checks.emplace_back("mst_phases", pipeline.mst->phases);

  probe_find(*sc, *pipeline.tree, o, tr, m, *pipeline.found, find,
             flood_us_per_msg);
  probe_quality_and_persist(*sc, *pipeline.tree, tr, m, *pipeline.found, find,
                            checks);
  probe_bundle(*sc, o, tr, m);
  probe_mst(boruvka, m);
  probe_apps(o, tr, m);
  probe_render(o, tr, m);
  tr.end(root);

  JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("workload", o.workload);
  w.key("metrics");
  m.write(w);
  w.kv("pipeline", o.pipeline);
  w.key("checks").begin_object();
  for (const auto& [k, v] : checks) w.kv(k, v);
  w.end_object();
  w.key("spans");
  tr.write(w, o.workload);
  w.end_object();
  w.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const lcs::CheckFailure& e) {
    std::cerr << "lcs_probe: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "lcs_probe: internal error: " << e.what() << "\n";
    return 3;
  }
}
