// gdp_perfbench — the benchmark driver behind perfbench/run.py.
//
// One process runs one workload: a closed job (one caller, the next job
// starts when the previous one returns) through the library's public entry
// points, repeated for --seconds, with every answer checked. It prints one
// JSON line with the ops attempted/failed, the observed values behind the
// pins, and the metrics:
//
//   --trace 0  the end-to-end metrics (medians over the run's jobs, and
//              over set-ups interleaved with them);
//   --trace 1  jobs with the obs registry and timeline on at threads=1 and
//              threads=4, the latter between two untraced jobs; the
//              per-layer metrics come from the driver's own spans around
//              each public call plus the counters gdp::obs already emits.
//
// The workloads and why each exists are documented in perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/exp/runner.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/par/par.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gdp;

constexpr std::uint64_t kAllPhils = ~std::uint64_t{0};
constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupRepeats = 3;  // per set-up round
constexpr double kEpsilon = 1e-6;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_bytes() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
}

// "key = value" lines; '#' starts a comment. The expected answers of the
// full-size instances (perfbench/pins.txt).
class Pins {
 public:
  explicit Pins(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read pins file " + path);
    std::string line;
    while (std::getline(in, line)) {
      line = line.substr(0, line.find('#'));
      const auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      kv_[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
    }
  }
  const std::string* find(const std::string& key) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? nullptr : &it->second;
  }

 private:
  static std::string trim(const std::string& s) {
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
  }
  std::map<std::string, std::string> kv_;
};

// Every public call is one op; it fails when it throws or when a check on
// its answer fails (at most once per op).
struct Ops {
  std::size_t attempted = 0;
  std::set<std::size_t> failed;
  std::vector<std::string> errors;

  void fail(std::size_t op, const std::string& why) {
    failed.insert(op);
    if (errors.size() < 20) errors.push_back(why);
  }
};

std::map<std::string, std::uint64_t> registry_counters() {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : snap.counters) out[c.name] = c.value;
  for (const auto& c : snap.timing_counters) out[c.name] = c.value;
  return out;
}

// A directory removed with everything in it when the scope ends — declared
// before the models that map files inside it, so they unmap first.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) { fs::create_directories(path_); }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// What one job leaves for the metrics besides its spans.
struct JobOut {
  double work = 0.0;         // units of work_per_s done by the job
  std::vector<std::string> work_spans;  // layers whose time work_per_s divides by
  std::size_t states = 0;    // largest model of the job
  std::size_t chunks = 0;    // chunks of models read under a residency budget
  std::size_t checkpoint_bytes = 0;
  std::size_t peak_resident_bytes = 0;
  std::uint64_t sim_steps = 0;
};

// Per-job context: thread count, op accounting, the driver's layer spans
// and (traced) per-layer registry counter deltas, and the answer checks.
// Warm-up jobs record nothing; full-size jobs record every checked value,
// compare it with the run's first job (the same inputs must give the same
// answer) and, when `pins` is set, with the pinned value.
class Ctx {
 public:
  Ctx(Ops& ops, bool record, const Pins* pins, const std::map<std::string, std::string>* first,
      int threads, bool traced, fs::path job_dir)
      : ops_(ops), record_(record), pins_(pins), first_(first), threads_(threads),
        traced_(traced), job_dir_(std::move(job_dir)) {}

  int threads() const { return threads_; }
  const fs::path& job_dir() const { return job_dir_; }
  std::map<std::string, double> span_s;
  std::map<std::string, std::map<std::string, std::uint64_t>> layer_counters;
  std::map<std::string, std::string> observed;
  /// Seconds from the job's start to the return of its last public call —
  /// the job's wall time; the answer checks that follow are not part of it.
  double answered_s = 0.0;

  // Runs one public call as op `op` inside the span of `layer`.
  template <class F>
  auto call(const char* layer, std::size_t& op, F&& f) {
    op = ops_.attempted++;
    std::map<std::string, std::uint64_t> before;
    if (traced_) before = registry_counters();
    obs::Stopwatch sw;
    try {
      auto result = f();
      finish(layer, sw.seconds(), before);
      answered_s = job_.seconds();
      return result;
    } catch (const std::exception& e) {
      finish(layer, sw.seconds(), before);
      ops_.fail(op, std::string(layer) + " threw: " + e.what());
      throw;
    }
  }

  void expect(std::size_t op, bool ok, const std::string& what) {
    if (!ok) ops_.fail(op, what);
  }

  // Checks an exact pinned value.
  void pin(std::size_t op, const std::string& key, std::uint64_t value) {
    const std::string got = std::to_string(value);
    if (!observe(op, key, got)) return;
    const std::string* want = pins_->find(key);
    expect(op, want != nullptr && *want == got,
           key + " = " + got + ", pinned " + (want ? *want : "<missing>"));
  }

  // Checks that a certified interval contains a pinned value.
  void pin_within(std::size_t op, const std::string& key, const mdp::quant::Interval& iv) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "[%.17g, %.17g]", iv.lower, iv.upper);
    if (!observe(op, key, buf)) return;
    const std::string* want = pins_->find(key);
    expect(op, want != nullptr && iv.contains(std::strtod(want->c_str(), nullptr)),
           key + " = " + buf + ", pinned " + (want ? *want : "<missing>"));
  }

 private:
  // Records `value` and checks it against the run's first job; true when a
  // pin check should follow.
  bool observe(std::size_t op, const std::string& key, const std::string& value) {
    if (!record_) return false;
    observed[key] = value;
    if (first_ != nullptr) {
      const auto it = first_->find(key);
      expect(op, it == first_->end() || it->second == value,
             key + " changed between jobs: " + value + " after " +
                 (it == first_->end() ? "" : it->second));
    }
    return pins_ != nullptr;
  }

  void finish(const char* layer, double seconds,
              const std::map<std::string, std::uint64_t>& before) {
    span_s[layer] += seconds;
    if (!traced_) return;
    auto& delta = layer_counters[layer];
    for (const auto& [name, value] : registry_counters()) {
      const auto it = before.find(name);
      delta[name] += value - (it == before.end() ? 0 : it->second);
    }
  }

  Ops& ops_;
  bool record_;
  const Pins* pins_;
  const std::map<std::string, std::string>* first_;
  int threads_;
  bool traced_;
  fs::path job_dir_;
  obs::Stopwatch job_;
};

void check_intervals(Ctx& c, std::size_t op, const mdp::quant::QuantResult& q,
                     const std::string& what) {
  c.expect(op, q.certainty == mdp::quant::Certainty::kCertified,
           what + " not certified: " + mdp::quant::to_string(q.certainty));
  const std::pair<const char*, const mdp::quant::Interval*> ivs[] = {
      {"p_min", &q.p_min}, {"p_max", &q.p_max}, {"p_trap", &q.p_trap},
      {"e_min", &q.e_min}, {"e_max", &q.e_max}};
  for (const auto& [name, iv] : ivs) {
    c.expect(op, iv->width() <= q.epsilon,
             what + " " + name + " width " + std::to_string(iv->width()) + " > epsilon");
  }
}

// ---------------------------------------------------------------------------
// Workloads. Each instance is built by setup(); `small` selects the warm-up
// instance (same pipeline, seconds → milliseconds, no pins).

struct Instance {
  std::unique_ptr<algos::Algorithm> algo;
  std::optional<graph::Topology> topology;  // unset for the campaign
  std::size_t cap = 0;        // explore_spill: first cap
  std::size_t resume_cap = 0; // explore_spill: resume cap
  std::size_t chunk_states = 0;
  std::size_t resident_chunks = 0;
  exp::CampaignSpec campaign;
};

// explore_spill — gdp2 on ring_with_chord(4) (the Theorem 1 premise): spill
// explore to a cap, checkpoint round trip, resume to a larger cap.
Instance setup_explore_spill(bool small, std::uint64_t) {
  Instance in;
  in.algo = algos::make_algorithm("gdp2");
  in.topology = graph::ring_with_chord(4);
  in.cap = small ? 10'000 : 500'000;
  in.resume_cap = small ? 30'000 : 1'000'000;
  return in;
}

JobOut job_explore_spill(Ctx& c, const Instance& in) {
  const ScratchDir dir(c.job_dir());
  mdp::store::StoreOptions so;
  so.spill = true;
  so.dir = dir.str();
  mdp::par::CheckOptions co;
  co.threads = c.threads();
  co.max_states = in.cap;
  const std::string ckpt = dir.str() + "/capped.gdpckpt";

  std::size_t op_explore = 0, op_save = 0, op_load = 0, op_resume = 0;
  const auto capped = c.call("mdp.explore", op_explore,
                             [&] { return mdp::store::explore(*in.algo, *in.topology, so, co); });
  c.call("mdp.store.save", op_save, [&] {
    capped.save_checkpoint(ckpt);
    return 0;
  });
  const auto loaded = c.call("mdp.store.load", op_load, [&] {
    return mdp::store::ChunkedModel::load_checkpoint(*in.algo, *in.topology, ckpt, so);
  });
  co.max_states = in.resume_cap;
  const auto resumed = c.call("mdp.store.resume", op_resume, [&] {
    return mdp::store::resume(*in.algo, *in.topology, loaded, so, co);
  });

  auto edges = [](const mdp::store::ChunkedModel& m) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < m.num_chunks(); ++i) n += m.chunk(i).num_outcomes();
    return n;
  };
  const std::uint64_t capped_fp = capped.fingerprint();
  c.expect(op_explore, capped.truncated(), "capped explore is not truncated");
  c.pin(op_explore, "explore_spill.cap.states", capped.num_states());
  c.pin(op_explore, "explore_spill.cap.edges", edges(capped));
  c.pin(op_explore, "explore_spill.cap.fingerprint", capped_fp);
  c.expect(op_save, fs::file_size(ckpt) > 0, "empty checkpoint");
  c.expect(op_load, loaded.fingerprint() == capped_fp, "checkpoint round trip changed the model");
  c.expect(op_load, loaded.num_states() == capped.num_states(), "checkpoint lost states");
  c.pin(op_resume, "explore_spill.resume.states", resumed.num_states());
  c.pin(op_resume, "explore_spill.resume.edges", edges(resumed));
  c.pin(op_resume, "explore_spill.resume.fingerprint", resumed.fingerprint());

  JobOut out;
  out.work = static_cast<double>(capped.num_states());
  out.work_spans = {"mdp.explore"};
  out.states = resumed.num_states();
  out.checkpoint_bytes = fs::file_size(ckpt);
  out.peak_resident_bytes = resumed.peak_resident_bytes();
  return out;
}

// verify_inmem — gdp1 on ring_with_pendant(3), the §5 row: progress
// certified, no philosopher lockout-free, five certified quant targets.
Instance setup_verify_inmem(bool small, std::uint64_t) {
  Instance in;
  in.algo = algos::make_algorithm("gdp1");
  in.topology = small ? graph::classic_ring(3) : graph::ring_with_pendant(3);
  return in;
}

JobOut job_verify_inmem(Ctx& c, const Instance& in) {
  mdp::par::CheckOptions co;
  co.threads = c.threads();
  mdp::quant::QuantOptions qo;
  qo.threads = c.threads();
  qo.epsilon = kEpsilon;

  std::size_t op_explore = 0, op_fair = 0, op_quant = 0;
  const auto model = c.call("mdp.explore", op_explore,
                            [&] { return mdp::par::explore(*in.algo, *in.topology, co); });
  const auto progress = c.call("mdp.fair.progress", op_fair, [&] {
    return mdp::par::check_fair_progress(model, kAllPhils, co);
  });
  const int n = model.num_phils();
  std::vector<std::pair<std::size_t, mdp::FairProgressResult>> lockout(n);
  for (int p = 0; p < n; ++p) {
    lockout[p].second = c.call("mdp.fair.lockout", lockout[p].first, [&] {
      return mdp::par::check_lockout_freedom(model, static_cast<PhilId>(p), co);
    });
  }
  std::vector<std::uint64_t> targets{kAllPhils};
  for (int p = 0; p < n; ++p) targets.push_back(std::uint64_t{1} << p);
  const auto quant = c.call("mdp.quant", op_quant,
                            [&] { return mdp::quant::analyze(model, targets, qo); });

  c.expect(op_explore, !model.truncated(), "model truncated");
  c.pin(op_explore, "verify_inmem.states", model.num_states());
  c.expect(op_fair, progress.verdict == mdp::Verdict::kProgressCertain,
           std::string("progress: ") + mdp::to_string(progress.verdict));
  for (int p = 0; p < n; ++p) {
    c.expect(lockout[p].first, lockout[p].second.verdict == mdp::Verdict::kProgressFails,
             "philosopher " + std::to_string(p) + " lockout-free: " +
                 mdp::to_string(lockout[p].second.verdict));
  }
  c.expect(op_quant, quant.size() == targets.size(), "quant result count");
  for (std::size_t i = 0; i < quant.size(); ++i) {
    check_intervals(c, op_quant, quant[i], "target " + std::to_string(i));
  }

  JobOut out;
  out.work = static_cast<double>(model.num_states());
  out.work_spans = {"mdp.fair.progress", "mdp.fair.lockout", "mdp.quant"};
  out.states = model.num_states();
  return out;
}

// verify_outofcore — lr2 on parallel_arcs(4) (Theorem 2: a fair trap),
// explored into a spilled store of small chunks read under a residency
// budget of a few chunks. At 8 of 83 chunks every chunk streams in about
// once per sweep (~6.7k faults a job). Tighter budgets thrash (52k faults at
// 6, 300k at 4), and on a shared 4-vCPU host the mutex-serialized fault path
// then made the job's time swing 2.5x with the host's load.
Instance setup_verify_outofcore(bool small, std::uint64_t) {
  Instance in;
  in.algo = algos::make_algorithm("lr2");
  in.topology = graph::parallel_arcs(small ? 3 : 4);
  in.chunk_states = small ? 2'048 : 8'192;
  in.resident_chunks = 8;
  return in;
}

JobOut job_verify_outofcore(Ctx& c, const Instance& in) {
  const ScratchDir dir(c.job_dir());
  mdp::store::StoreOptions so;
  so.spill = true;
  so.dir = dir.str();
  so.chunk_states = in.chunk_states;
  so.max_resident_chunks = in.resident_chunks;
  mdp::par::CheckOptions co;
  co.threads = c.threads();
  mdp::quant::QuantOptions qo;
  qo.threads = c.threads();
  qo.epsilon = kEpsilon;

  std::size_t op_explore = 0, op_fair = 0, op_quant = 0;
  const auto model = c.call("mdp.explore", op_explore,
                            [&] { return mdp::store::explore(*in.algo, *in.topology, so, co); });
  const auto progress = c.call("mdp.fair.progress", op_fair, [&] {
    return mdp::store::check_fair_progress(model, kAllPhils, co);
  });
  const auto quant = c.call("mdp.quant", op_quant,
                            [&] { return mdp::store::analyze(model, kAllPhils, qo); });

  c.expect(op_explore, !model.truncated(), "model truncated");
  c.pin(op_explore, "verify_outofcore.states", model.num_states());
  c.expect(op_fair, progress.verdict == mdp::Verdict::kProgressFails,
           std::string("progress: ") + mdp::to_string(progress.verdict));
  check_intervals(c, op_quant, quant, "p_min");
  c.pin_within(op_quant, "verify_outofcore.p_min", quant.p_min);

  JobOut out;
  out.work = static_cast<double>(model.num_states());
  out.work_spans = {"mdp.fair.progress", "mdp.quant"};
  out.states = model.num_states();
  out.chunks = model.num_chunks();
  out.peak_resident_bytes = model.peak_resident_bytes();
  return out;
}

// campaign — the simulator grid {lr1, lr2, gdp1, gdp2, gdp2c} x {ring(5),
// fig1a, ring_with_chord(4), parallel_arcs(3)} x {uniform, longest-waiting,
// eat-avoider}; the only workload that consumes the seed.
Instance setup_campaign(bool small, std::uint64_t seed) {
  Instance in;
  exp::CampaignSpec& spec = in.campaign;
  spec.name = "perfbench";
  spec.seed = seed;
  spec.trials = small ? 1 : 10;
  spec.topologies = {graph::classic_ring(5), graph::fig1a(), graph::ring_with_chord(4),
                     graph::parallel_arcs(3)};
  spec.algorithms = {"lr1", "lr2", "gdp1", "gdp2", "gdp2c"};
  spec.schedulers = {exp::uniform(), exp::longest_waiting(), exp::eat_avoider()};
  spec.engine.max_steps = small ? 2'000 : 20'000;
  return in;
}

JobOut job_campaign(Ctx& c, const Instance& in) {
  std::size_t op = 0;
  const auto result = c.call("exp.campaign", op,
                             [&] { return exp::run_campaign(in.campaign, c.threads()); });
  const std::size_t want_cells = exp::num_cells(in.campaign);
  c.expect(op, result.cells.size() == want_cells,
           "cells " + std::to_string(result.cells.size()) + " != " + std::to_string(want_cells));
  JobOut out;
  for (const auto& cell : result.cells) {
    c.expect(op, cell.trials() == static_cast<std::uint64_t>(in.campaign.trials),
             cell.label() + ": " + std::to_string(cell.trials()) + " trials");
    out.sim_steps += static_cast<std::uint64_t>(
        static_cast<double>(cell.steps().count()) * cell.steps().mean() + 0.5);
  }
  c.pin(op, "campaign.seed" + std::to_string(in.campaign.seed) + ".csv_fnv1a",
        fnv1a(result.csv()));
  out.work = static_cast<double>(want_cells) * in.campaign.trials;
  out.work_spans = {"exp.campaign"};
  return out;
}

struct Workload {
  const char* name;
  Instance (*setup)(bool small, std::uint64_t seed);
  JobOut (*job)(Ctx& c, const Instance& in);
};

constexpr Workload kWorkloads[] = {
    {"explore_spill", setup_explore_spill, job_explore_spill},
    {"verify_inmem", setup_verify_inmem, job_verify_inmem},
    {"verify_outofcore", setup_verify_outofcore, job_verify_outofcore},
    {"campaign", setup_campaign, job_campaign},
};

// ---------------------------------------------------------------------------
// Runs and metrics.

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string tmpdir;
  std::string pins;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args, const Pins& pins)
      : w_(w), args_(args), pins_(pins),
        threads_(static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())))) {}

  int threads() const { return threads_; }
  Ops ops;
  std::vector<double> walls;  // every full-size job, in order
  std::map<std::string, std::string> observed;

  // One job; `full` marks the full-size instance, whose answers are checked
  // against the pins and the run's first job.
  struct Done {
    double wall = 0.0;
    JobOut out;
    Ctx ctx;
  };
  Done job(const Instance& in, bool full, int threads, bool traced) {
    Ctx ctx(ops, full, full && seed_pinned(in) ? &pins_ : nullptr,
            observed.empty() ? nullptr : &observed, threads, traced,
            fs::path(args_.tmpdir) / ("job-" + std::to_string(jobs_++)));
    JobOut out = w_.job(ctx, in);
    const double wall = ctx.answered_s;
    if (full) walls.push_back(wall);
    if (observed.empty()) observed = ctx.observed;
    return {wall, std::move(out), std::move(ctx)};
  }

  // Builds the full-size instance and warms the pipeline on the small one,
  // kSetupRepeats times; each time is appended to `times`.
  Instance setup(std::vector<double>& times) {
    std::optional<Instance> in;
    for (int i = 0; i < kSetupRepeats; ++i) {
      obs::Stopwatch sw;
      in = w_.setup(false, args_.seed);
      const Instance warm = w_.setup(true, args_.seed);
      job(warm, false, threads_, false);
      times.push_back(sw.seconds());
    }
    return std::move(*in);
  }

 private:
  // The campaign digest is pinned for the default seed only; every other
  // pin is seed-independent (those instances contain no randomness).
  bool seed_pinned(const Instance& in) const {
    return in.campaign.algorithms.empty() || in.campaign.seed == kDefaultSeed;
  }

  const Workload& w_;
  const Args& args_;
  const Pins& pins_;
  int threads_;
  std::size_t jobs_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double span_sum(const Ctx& c, const std::vector<std::string>& layers) {
  double s = 0.0;
  for (const auto& layer : layers) {
    const auto it = c.span_s.find(layer);
    if (it != c.span_s.end()) s += it->second;
  }
  return s;
}

double span_total(const Ctx& c) {
  double s = 0.0;
  for (const auto& [name, v] : c.span_s) s += v;
  return s;
}

std::uint64_t counter_in(const Ctx& c, const char* layer, const char* name) {
  const auto l = c.layer_counters.find(layer);
  if (l == c.layer_counters.end()) return 0;
  const auto it = l->second.find(name);
  return it == l->second.end() ? 0 : it->second;
}

std::uint64_t counter_all(const Ctx& c, const char* name) {
  std::uint64_t n = 0;
  for (const auto& [layer, counters] : c.layer_counters) {
    const auto it = counters.find(name);
    if (it != counters.end()) n += it->second;
  }
  return n;
}

// Busy seconds of pool workers: the "pool.worker" slices on every timeline
// track (one per worker per parallel_for call).
double pool_busy_seconds(std::uint64_t& dropped) {
  double busy = 0.0;
  dropped = 0;
  for (const auto& track : obs::timeline::snapshot_tracks()) {
    dropped += track.dropped_events;
    std::vector<std::uint64_t> open;
    for (const auto& e : track.events) {
      if (e.name == nullptr || std::strcmp(e.name, "pool.worker") != 0) continue;
      if (e.kind == obs::timeline::EventKind::kBegin) {
        open.push_back(e.ts_ns);
      } else if (e.kind == obs::timeline::EventKind::kEnd && !open.empty()) {
        busy += static_cast<double>(e.ts_ns - open.back()) * 1e-9;
        open.pop_back();
      }
    }
  }
  return busy;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A set-up round follows every job, so the median set-up time is taken
// over the whole run and not over the host's load during its first second.
std::vector<Metric> end_to_end(Runner& r, const Instance& in, const Args& args,
                               std::vector<double> setup_times) {
  std::vector<double> rates;
  obs::Stopwatch total;
  do {
    auto done = r.job(in, true, r.threads(), false);
    rates.push_back(ratio(done.out.work, span_sum(done.ctx, done.out.work_spans)));
    r.setup(setup_times);
  } while (total.seconds() < args.seconds);
  return {
      {"setup_s", median(std::move(setup_times)), "s"},
      {"time_to_verdict_s", median(r.walls), "s"},
      {"work_per_s", median(rates), "1/s"},
      {"peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0), "MB"},
  };
}

std::vector<Metric> per_layer(Runner& r, const Instance& in, std::string& coverage_error) {
  auto traced = [&](int threads) {
    obs::Registry::global().reset();
    obs::timeline::reset();
    obs::set_enabled(true);
    obs::timeline::set_enabled(true);
    auto done = r.job(in, true, threads, true);
    obs::set_enabled(false);
    obs::timeline::set_enabled(false);
    return done;
  };
  // The 1-thread job comes first and warms the full-size pipeline; the
  // 4-thread one runs between two untraced jobs, whose mean is the overhead
  // baseline, so neither side is the run's first full-size job.
  const auto t1 = traced(1);
  const double untraced_before = r.job(in, true, r.threads(), false).wall;
  auto t4 = traced(r.threads());
  std::uint64_t dropped = 0;
  const double busy = pool_busy_seconds(dropped);
  const double untraced_after = r.job(in, true, r.threads(), false).wall;
  const double untraced_wall = 0.5 * (untraced_before + untraced_after);

  const double cov4 = ratio(span_total(t4.ctx), t4.wall);
  const double cov1 = ratio(span_total(t1.ctx), t1.wall);
  if (std::min(cov4, cov1) < 0.9) {
    coverage_error = "layer spans cover " + std::to_string(std::min(cov4, cov1)) +
                     " of the traced wall time (< 0.9)";
  }

  const Ctx& c = t4.ctx;
  auto s4 = [&](const char* layer) { return span_sum(c, {layer}); };
  auto s1 = [&](const char* layer) { return span_sum(t1.ctx, {layer}); };
  const auto explore_states = counter_in(c, "mdp.explore", "explore.states");
  const auto t1_states = counter_in(t1.ctx, "mdp.explore", "explore.states");
  const auto sweeps = counter_in(c, "mdp.quant", "quant.sweeps");
  const auto faults = counter_all(c, "store.chunk_faults");
  const double rss = peak_rss_bytes();
  return {
      {"mdp.explore.s", s4("mdp.explore"), "s"},
      {"mdp.explore.s_t1", s1("mdp.explore"), "s"},
      {"mdp.explore.states", static_cast<double>(explore_states), "count"},
      {"mdp.explore.edges", static_cast<double>(counter_in(c, "mdp.explore", "explore.edges")),
       "count"},
      {"mdp.explore.levels",
       static_cast<double>(counter_in(c, "mdp.explore", "explore.levels")), "count"},
      {"mdp.explore.states_per_s", ratio(explore_states, s4("mdp.explore")), "1/s"},
      {"mdp.explore.states_per_s_t1", ratio(t1_states, s1("mdp.explore")), "1/s"},
      {"mdp.explore.rss_bytes_per_state", ratio(rss, static_cast<double>(t4.out.states)),
       "B/state"},
      {"mdp.store.save_s", s4("mdp.store.save"), "s"},
      {"mdp.store.load_s", s4("mdp.store.load"), "s"},
      {"mdp.store.resume_s", s4("mdp.store.resume"), "s"},
      {"mdp.store.checkpoint_bytes", static_cast<double>(t4.out.checkpoint_bytes), "bytes"},
      {"mdp.store.spill_bytes", static_cast<double>(counter_all(c, "store.spill_bytes")),
       "bytes"},
      {"mdp.store.chunk_faults", static_cast<double>(faults), "count"},
      {"mdp.store.chunk_evictions",
       static_cast<double>(counter_all(c, "store.chunk_evictions")), "count"},
      {"mdp.store.faults_per_chunk", ratio(faults, static_cast<double>(t4.out.chunks)), "count"},
      {"mdp.store.peak_resident_bytes", static_cast<double>(t4.out.peak_resident_bytes),
       "bytes"},
      {"mdp.fair.progress_s", s4("mdp.fair.progress"), "s"},
      {"mdp.fair.progress_s_t1", s1("mdp.fair.progress"), "s"},
      {"mdp.fair.lockout_s", s4("mdp.fair.lockout"), "s"},
      {"mdp.fair.lockout_s_t1", s1("mdp.fair.lockout"), "s"},
      {"mec.trimmed_states", static_cast<double>(counter_all(c, "mec.trimmed_states")), "count"},
      {"mec.fwbw_splits", static_cast<double>(counter_all(c, "mec.fwbw_splits")), "count"},
      {"mec.tarjan_regions", static_cast<double>(counter_all(c, "mec.tarjan_regions")), "count"},
      {"mec.refinement_rounds", static_cast<double>(counter_all(c, "mec.refinement_rounds")),
       "count"},
      {"mdp.quant.s", s4("mdp.quant"), "s"},
      {"mdp.quant.s_t1", s1("mdp.quant"), "s"},
      {"mdp.quant.sweeps", static_cast<double>(sweeps), "count"},
      {"mdp.quant.sweeps_per_s", ratio(sweeps, s4("mdp.quant")), "1/s"},
      {"mdp.quant.stalled_phases",
       static_cast<double>(counter_in(c, "mdp.quant", "quant.stalled_phases")), "count"},
      {"exp.campaign.s", s4("exp.campaign"), "s"},
      {"exp.campaign.s_t1", s1("exp.campaign"), "s"},
      {"exp.trials", static_cast<double>(counter_in(c, "exp.campaign", "exp.trials")), "count"},
      {"sim.steps", static_cast<double>(t4.out.sim_steps), "count"},
      {"sim.steps_per_s", ratio(static_cast<double>(t4.out.sim_steps), s4("exp.campaign")),
       "1/s"},
      {"common.pool.tasks", static_cast<double>(counter_all(c, "pool.tasks")), "count"},
      {"common.pool.steals", static_cast<double>(counter_all(c, "pool.steals")), "count"},
      {"common.pool.busy_frac", ratio(busy, r.threads() * t4.wall), "frac"},
      {"obs.trace_overhead_frac", ratio(t4.wall, untraced_wall) - 1.0, "frac"},
      {"obs.span_coverage_frac", std::min(cov4, cov1), "frac"},
      {"obs.timeline_dropped_events", static_cast<double>(dropped), "count"},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gdp_perfbench: %s\nusage: gdp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmpdir DIR --pins FILE\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--tmpdir") a.tmpdir = v;
    else if (flag == "--pins") a.pins = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.tmpdir.empty() || a.pins.empty()) usage("--tmpdir and --pins are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Pins pins(args.pins);

  // Untraced unless a pass turns the planes on, whatever GDP_OBS says.
  obs::set_enabled(false);
  obs::timeline::set_enabled(false);

  Runner runner(*w, args, pins);
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  try {
    std::vector<double> setup_times;
    const Instance in = runner.setup(setup_times);
    std::string coverage_error;
    metrics = args.trace ? per_layer(runner, in, coverage_error)
                         : end_to_end(runner, in, args, std::move(setup_times));
    if (!coverage_error.empty()) errors.push_back(coverage_error);
  } catch (const std::exception& e) {
    errors.push_back(std::string("run aborted: ") + e.what());
  }
  std::error_code ec;
  if (fs::exists(args.tmpdir, ec) && !fs::is_empty(args.tmpdir, ec)) {
    errors.push_back("files left behind in " + args.tmpdir);
  }
  errors.insert(errors.end(), runner.ops.errors.begin(), runner.ops.errors.end());

  const bool correct = errors.empty() && runner.ops.failed.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(runner.ops.attempted);
  out += ", \"failed\": " + std::to_string(runner.ops.failed.size());
  out += ", \"threads\": " + std::to_string(runner.threads());
  out += ", \"compiler\": " + json_string(GDP_PERFBENCH_COMPILER);
  out += ", \"build_type\": " + json_string(GDP_PERFBENCH_BUILD_TYPE);
  out += ", \"job_walls\": [";
  for (std::size_t i = 0; i < runner.walls.size(); ++i) {
    out += (i ? ", " : "") + json_number(runner.walls[i]);
  }
  out += "], \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) out += (i ? ", " : "") + json_string(errors[i]);
  out += "], \"observed\": {";
  bool first = true;
  for (const auto& [k, v] : runner.observed) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
