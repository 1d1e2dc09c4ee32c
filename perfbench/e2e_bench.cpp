// End-to-end period-loop benchmark for serve::AllocationEngine.
//
// One closed loop: a single caller drives AllocationEngine::tick() and each
// tick starts when the previous one returns. Every input (traces, churn
// script, fault stream, interference profile) is generated from --seed; the
// engine only ever sees the generated inputs.
//
//   cava_e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 measures the end-to-end metrics on an uninstrumented engine.
// --trace 1 splits the time between an uninstrumented and an instrumented
// loop and reports the per-layer metrics; every layer is timed from this file
// (a decorator around PlacementPolicy::place / VfPolicy::decide, the existing
// RunOptions metrics registry and period recorder, and direct calls to public
// functions). METRICS.md maps every metric to the call it times.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// attempted/failed count VM-periods; a tick that throws fails all its VMs.
#include "alloc/correlation_aware.h"
#include "alloc/interference.h"
#include "alloc/interference_aware.h"
#include "alloc/sharded.h"
#include "alloc/structure_aware.h"
#include "alloc/validate.h"
#include "cachesim/profile.h"
#include "corr/cost_matrix.h"
#include "corr/moments.h"
#include "dvfs/vf_policy.h"
#include "model/fleet.h"
#include "obs/metrics.h"
#include "obs/period_recorder.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "sim/churn.h"
#include "sim/datacenter_sim.h"
#include "sim/fault.h"
#include "trace/synthesis.h"
#include "util/binio.h"
#include "util/rng.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace cava;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// q-quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Independent per-layer streams from one workload seed, so e.g. the churn
/// script does not shift when the trace generator changes its draw count.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  util::SplitMix64 sm(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Peak resident set (VmHWM) of this process, MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double heap_in_use_bytes() {
  return static_cast<double>(mallinfo2().uordblks);
}

// ---------------------------------------------------------------------------
// Workloads.

enum class PolicyKind { kProposed, kStructureSharded, kInterference };

struct WorkloadInfo {
  const char* name;
  std::uint64_t default_seed;
};

// Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
constexpr WorkloadInfo kWorkloads[] = {
    {"dense-ingest-2k", 1},
    {"sparse-serve-10k", 2},
    {"hetero-faults", 3},
    {"interference-penalty", 4},
};

/// Everything the seed determines, plus the workload's fixed shape.
struct Inputs {
  trace::TraceSet traces;
  sim::SimConfig config;
  sim::ChurnSpec churn;
  serve::EngineOptions options;
  PolicyKind policy = PolicyKind::kProposed;
  /// Ticks between in-memory checkpoint round trips (0 = none).
  std::size_t snapshot_every = 0;
  std::size_t shard_threads = 0;
  double synth_s = 0.0;
  double profile_s = 0.0;
};

/// Alternating R815 (48-core) / E5410 (8-core) fleet, 4 servers per chassis,
/// 4 chassis per rack, with enclosure idle power.
model::FleetSpec mixed_fleet(std::size_t servers) {
  std::vector<model::ServerClass> classes = {model::ServerClass::dell_r815(),
                                             model::ServerClass::xeon_e5410()};
  std::vector<std::size_t> class_of(servers);
  for (std::size_t s = 0; s < servers; ++s) class_of[s] = s % 2;
  model::FleetTopology topo;
  topo.servers_per_chassis = 4;
  topo.chassis_per_rack = 4;
  topo.chassis_idle_watts = 40.0;
  topo.rack_idle_watts = 120.0;
  return model::FleetSpec(std::move(classes), std::move(class_of), topo);
}

void synthesize(Inputs& in, int vms, int groups, double hours, double dt,
                std::uint64_t seed) {
  trace::DatacenterTraceConfig tc;
  tc.num_vms = vms;
  tc.num_groups = groups;
  tc.day_seconds = hours * 3600.0;
  tc.fine_dt = dt;
  tc.seed = derive_seed(seed, 1);
  const auto t0 = Clock::now();
  in.traces = trace::generate_datacenter_traces(tc);
  in.synth_s = ns_between(t0, Clock::now()) * 1e-9;
}

/// Builds the inputs of one workload. Fleets are sized with headroom: without
/// faults no VM may stay unplaced (checked after every episode).
Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   std::size_t threads) {
  Inputs in;
  sim::SimConfig& cfg = in.config;
  cfg.vf_mode = sim::VfMode::kStatic;
  // Every workload synthesizes about 10 VMs per load group, so one seed's
  // group phases and bursts do not dominate the run.
  if (workload == "dense-ingest-2k") {
    // 6 one-hour periods at 5 s samples; about 615 of 900 servers active.
    synthesize(in, 2000, 200, 6.0, 5.0, seed);
    cfg.max_servers = 900;
    cfg.period_seconds = 3600.0;
  } else if (workload == "sparse-serve-10k") {
    // 10 s samples keep the 10k-VM trace near 170 MB; about 2300 of 4000
    // servers active.
    synthesize(in, 10000, 1000, 6.0, 10.0, seed);
    cfg.max_servers = 4000;
    cfg.period_seconds = 3600.0;
    cfg.corr_mode = sim::CorrMode::kSparse;
    cfg.sparse_index.top_k = 16;
    cfg.sparse_build_threads = threads;
    sim::SyntheticChurnConfig churn;
    churn.num_vms = in.traces.size();
    churn.num_periods = 6;
    churn.arrival_prob = 0.05;
    churn.departure_prob = 0.05;
    churn.seed = derive_seed(seed, 2);
    in.churn = sim::ChurnSpec::synthetic(churn);
    // About 6700 planned moves per tick; the budget reverts a few dozen to
    // a few hundred of them.
    in.options.migration_budget = 6000;
    in.snapshot_every = 2;
  } else if (workload == "hetero-faults") {
    // About 780 of 1152 servers active, so failover finds hosts after
    // crashes.
    synthesize(in, 2400, 240, 6.0, 5.0, seed);
    cfg.fleet = mixed_fleet(1152);
    cfg.period_seconds = 3600.0;
    cfg.corr_mode = sim::CorrMode::kSparse;
    cfg.sparse_index.top_k = 16;
    cfg.sparse_build_threads = threads;
    cfg.vf_mode = sim::VfMode::kDynamic;
    cfg.faults.crash_prob_per_period = 0.02;
    cfg.faults.repair_seconds = 1800.0;
    cfg.fault_seed = derive_seed(seed, 3);
    in.policy = PolicyKind::kStructureSharded;
    in.shard_threads = threads;
  } else if (workload == "interference-penalty") {
    // 18 ten-minute periods: ALLOCATE with the -lambda*D term is a large
    // share of a short tick.
    synthesize(in, 800, 80, 3.0, 5.0, seed);
    cfg.max_servers = 400;
    cfg.period_seconds = 600.0;
    const auto t0 = Clock::now();
    const cachesim::ClassDegradationTable table =
        cachesim::build_class_degradation(cachesim::table1_streams(),
                                          cachesim::CorunConfig{});
    alloc::InterferenceProfile profile;
    profile.classes = table.names;
    profile.degradation = table.degradation;
    cfg.interference_matrix = std::make_shared<alloc::InterferenceMatrix>(
        profile.matrix_for(in.traces.size()));
    in.profile_s = ns_between(t0, Clock::now()) * 1e-9;
    cfg.interference_lambda = 0.5;
    cfg.interference_top_k = 8;
    in.policy = PolicyKind::kInterference;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return in;
}

// ---------------------------------------------------------------------------
// Layer observation from outside the program.

/// Per-engine counters filled by the decorators. Shard-level counts arrive
/// from the rack-shard worker threads, hence the atomics.
struct LayerStats {
  bool timing = false;  ///< instrumented run: time place() and decide()
  double place_ns = 0.0;
  double decide_ns = 0.0;
  /// Validation work done inside tick(); subtracted from the tick wall.
  double check_ns = 0.0;
  std::uint64_t placed_vms = 0;
  std::uint64_t candidate_evals = 0;
  std::uint64_t relaxation_rounds = 0;
  double shard_max_ns = 0.0;
  std::uint64_t reconcile_moves = 0;
  std::atomic<std::uint64_t> shard_evals{0};
  std::atomic<std::uint64_t> shard_relaxations{0};
  std::vector<std::string> issues;
};

struct SweepCounts {
  std::size_t evals = 0;
  std::size_t relaxations = 0;
};

/// The engine's own diagnostics reach the policies through dynamic_cast,
/// which a decorator hides; read the wrapped policy's accessors here.
SweepCounts sweep_counts(const alloc::PlacementPolicy& policy) {
  if (const auto* p =
          dynamic_cast<const alloc::CorrelationAwarePlacement*>(&policy)) {
    return {p->last_candidate_evals(), p->last_relaxation_rounds()};
  }
  if (const auto* p =
          dynamic_cast<const alloc::InterferenceAwarePlacement*>(&policy)) {
    return {p->last_candidate_evals(), p->last_relaxation_rounds()};
  }
  if (const auto* p =
          dynamic_cast<const alloc::StructureAwarePlacement*>(&policy)) {
    return {0, p->last_relaxation_rounds()};
  }
  return {};
}

/// Forwards place() and records what the wrapped policy did. The outer
/// instance (the one the engine calls) validates every placement; a shard
/// instance (inside ShardedPlacement) only forwards its sweep counts.
class ObservedPolicy final : public alloc::PlacementPolicy {
 public:
  ObservedPolicy(std::unique_ptr<alloc::PlacementPolicy> inner,
                 LayerStats& stats, bool shard)
      : inner_(std::move(inner)), stats_(stats), shard_(shard) {}

  alloc::Placement place(std::span<const model::VmDemand> demands,
                         const alloc::PlacementContext& context) override {
    if (shard_) {
      alloc::Placement p = inner_->place(demands, context);
      const SweepCounts c = sweep_counts(*inner_);
      stats_.shard_evals += c.evals;
      stats_.shard_relaxations += c.relaxations;
      return p;
    }
    const Clock::time_point t0 =
        stats_.timing ? Clock::now() : Clock::time_point{};
    alloc::Placement p = inner_->place(demands, context);
    const Clock::time_point t1 = Clock::now();
    if (stats_.timing) stats_.place_ns += ns_between(t0, t1);

    const SweepCounts c = sweep_counts(*inner_);
    stats_.candidate_evals += c.evals + stats_.shard_evals.exchange(0);
    stats_.relaxation_rounds +=
        c.relaxations + stats_.shard_relaxations.exchange(0);
    if (const auto* s = dynamic_cast<const alloc::ShardedPlacement*>(
            inner_.get())) {
      stats_.shard_max_ns += s->last_max_shard_wall_ns();
      stats_.reconcile_moves += s->last_reconcile_moves();
    }
    stats_.placed_vms += demands.size();
    for (std::string& issue :
         alloc::validate_placement(p, demands, context.fleet_or_throw())) {
      stats_.issues.push_back(std::move(issue));
    }
    stats_.check_ns += ns_between(t1, Clock::now());
    return p;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<alloc::PlacementPolicy> inner_;
  LayerStats& stats_;
  bool shard_;
};

/// Forwards the static v/f rule and times each decide() call.
class ObservedVf final : public dvfs::VfPolicy {
 public:
  ObservedVf(std::unique_ptr<dvfs::VfPolicy> inner, LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  double raw_target(const dvfs::ServerView& view,
                    const model::ServerSpec& server) const override {
    return inner_->raw_target(view, server);
  }
  double decide(const dvfs::ServerView& view,
                const model::ServerSpec& server) const override {
    if (!stats_.timing) return inner_->decide(view, server);
    const Clock::time_point t0 = Clock::now();
    const double f = inner_->decide(view, server);
    stats_.decide_ns += ns_between(t0, Clock::now());
    return f;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<dvfs::VfPolicy> inner_;
  LayerStats& stats_;
};

/// One engine with its policy, v/f rule and (instrumented runs) sinks.
/// Members are declared before the engine that refers to them.
struct Rig {
  LayerStats stats;
  std::unique_ptr<alloc::PlacementPolicy> policy;
  std::unique_ptr<dvfs::VfPolicy> vf;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::PeriodRecorder> recorder;
  std::unique_ptr<serve::AllocationEngine> engine;
};

std::unique_ptr<alloc::PlacementPolicy> base_policy(PolicyKind kind,
                                                    double lambda) {
  switch (kind) {
    case PolicyKind::kStructureSharded:
      return std::make_unique<alloc::StructureAwarePlacement>();
    case PolicyKind::kInterference: {
      alloc::InterferenceAwareConfig icfg;
      icfg.lambda = lambda;
      return std::make_unique<alloc::InterferenceAwarePlacement>(icfg);
    }
    case PolicyKind::kProposed:
      break;
  }
  return std::make_unique<alloc::CorrelationAwarePlacement>();
}

std::unique_ptr<Rig> make_rig(const Inputs& in, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->stats.timing = traced;
  LayerStats& stats = rig->stats;
  std::unique_ptr<alloc::PlacementPolicy> inner;
  if (in.policy == PolicyKind::kStructureSharded) {
    alloc::ShardedConfig scfg;
    scfg.threads = in.shard_threads;
    const PolicyKind kind = in.policy;
    inner = std::make_unique<alloc::ShardedPlacement>(
        [&stats, kind]() -> std::unique_ptr<alloc::PlacementPolicy> {
          return std::make_unique<ObservedPolicy>(base_policy(kind, 0.0),
                                                  stats, /*shard=*/true);
        },
        scfg);
  } else {
    inner = base_policy(in.policy, in.config.interference_lambda);
  }
  rig->policy = std::make_unique<ObservedPolicy>(std::move(inner), stats,
                                                 /*shard=*/false);
  if (in.config.vf_mode == sim::VfMode::kStatic) {
    rig->vf = std::make_unique<ObservedVf>(
        std::make_unique<dvfs::CorrelationAwareVf>(), stats);
  }
  sim::RunOptions run{*rig->policy, rig->vf.get()};
  if (traced) {
    rig->metrics = std::make_unique<obs::MetricsRegistry>();
    rig->recorder = std::make_unique<obs::PeriodRecorder>();
    run.metrics = rig->metrics.get();
    run.recorder = rig->recorder.get();
  }
  rig->engine = std::make_unique<serve::AllocationEngine>(
      in.config, in.traces, in.churn, in.options, run);
  return rig;
}

// ---------------------------------------------------------------------------
// Output checks.

std::uint64_t digest(const sim::SimResult& r) {
  util::BinWriter w;
  w.str(r.policy_name);
  w.f64(r.total_energy_joules);
  w.f64(r.max_violation_ratio);
  w.f64(r.overall_violation_fraction);
  w.f64(r.mean_active_servers);
  w.size(r.total_migrated_vms);
  w.f64(r.total_migrated_cores);
  w.size(r.dropped_vm_samples);
  w.size(r.server_crashes);
  w.size(r.failover_migrations);
  w.f64(r.failover_migrated_cores);
  w.f64(r.unplaced_vm_seconds);
  w.f64(r.total_interference_degradation);
  w.f64(r.max_worst_pair_degradation);
  for (const sim::PeriodRecord& p : r.periods) {
    w.size(p.active_servers);
    w.f64(p.max_server_violation_ratio);
    w.f64(p.energy_joules);
    w.f64(p.mean_frequency);
    w.size(p.migrated_vms);
    w.f64(p.migrated_cores);
    w.size(p.server_crashes);
    w.size(p.failover_migrations);
    w.f64(p.unplaced_vm_seconds);
    w.size(p.active_chassis);
    w.size(p.active_racks);
    w.f64(p.interference_degradation);
    w.f64(p.worst_pair_degradation);
  }
  for (const auto& server : r.freq_residency_seconds) w.vec_f64(server);
  return util::fnv1a64(std::span<const std::uint8_t>(w.bytes()));
}

bool same_placement(const std::optional<alloc::Placement>& a,
                    const std::optional<alloc::Placement>& b) {
  if (!a.has_value() || !b.has_value()) return a.has_value() == b.has_value();
  if (a->num_vms() != b->num_vms()) return false;
  for (std::size_t vm = 0; vm < a->num_vms(); ++vm) {
    if (a->server_of(vm) != b->server_of(vm)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The closed loop.

/// What one loop (a sequence of identical episodes) measured.
struct LoopResult {
  std::vector<double> tick_ms;
  /// Active VM-periods each tick completed per second of its wall time.
  std::vector<double> tick_vm_rate;
  double wall_ns = 0.0;
  std::uint64_t vm_periods = 0;
  std::uint64_t failed_vm_periods = 0;
  std::size_t episodes = 0;
  std::optional<sim::SimResult> first;
  std::uint64_t digest = 0;
  /// Active VM-seconds of the first episode (the failure-share base).
  double active_vm_seconds = 0.0;
  // Per-layer accumulators (instrumented loop only).
  double place_ns = 0.0;
  double ingest_ns = 0.0;
  double decide_ns = 0.0;
  double snapshot_ns = 0.0;
  double save_ns = 0.0;
  double restore_ns = 0.0;
  double snapshot_bytes = 0.0;
  std::size_t snapshots = 0;
  std::uint64_t placed_vms = 0;
  std::uint64_t candidate_evals = 0;
  std::uint64_t relaxation_rounds = 0;
  double shard_max_ns = 0.0;
  std::uint64_t reconcile_moves = 0;
  std::uint64_t budget_reverted = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t dvfs_decisions = 0;
  double corr_index_bytes = 0.0;
  std::uint64_t server_crashes = 0;
  std::uint64_t failover_migrations = 0;
};

struct Checks {
  bool ok = true;
  std::vector<std::string> notes;
  void fail(std::string why) {
    ok = false;
    notes.push_back(std::move(why));
  }
};

/// Restores `payload` into a fresh engine and checks that its next tick is
/// bit-identical to the live engine's (which has already ticked).
void check_restore(const Inputs& in, const std::vector<std::uint8_t>& payload,
                   const serve::AllocationEngine& live, Checks& checks) {
  std::unique_ptr<Rig> fresh = make_rig(in, /*traced=*/false);
  fresh->engine->restore_state(payload);
  fresh->engine->tick();
  if (digest(fresh->engine->result()) != digest(live.result()) ||
      !same_placement(fresh->engine->last_placement(),
                      live.last_placement())) {
    checks.fail("restore_state(save_state()) did not reproduce the next tick");
  }
}

/// Runs episodes of the engine's total_periods ticks until `seconds` have
/// passed, at least one whole episode. The uninstrumented loop may stop
/// mid-episode at the deadline; the instrumented one runs whole episodes so
/// its per-tick counts repeat exactly. `rig` seeds the first episode.
LoopResult run_loop(const Inputs& in, bool traced, double seconds,
                    std::unique_ptr<Rig> rig, bool check_restore_once,
                    Checks& checks) {
  LoopResult out;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  bool restore_checked = !check_restore_once;
  do {
    if (!rig) rig = make_rig(in, traced);
    serve::AllocationEngine& engine = *rig->engine;
    std::vector<std::uint8_t> pending_restore;
    double active_vm_seconds = 0.0;
    bool threw = false;
    while (!engine.done()) {
      if (!traced && out.first.has_value() && Clock::now() >= deadline) break;
      const double check_before = rig->stats.check_ns;
      const Clock::time_point t0 = Clock::now();
      try {
        engine.tick();
      } catch (const std::exception& e) {
        out.failed_vm_periods += engine.active_vms();
        out.vm_periods += engine.active_vms();
        checks.notes.push_back(std::string("tick threw: ") + e.what());
        threw = true;
        break;
      }
      if (in.snapshot_every > 0 &&
          engine.period() % in.snapshot_every == 0 && !engine.done()) {
        const Clock::time_point s0 = Clock::now();
        serve::Snapshot snap;
        snap.config_fingerprint = engine.config_fingerprint();
        snap.next_period = engine.period();
        snap.payload = engine.save_state();
        const std::vector<std::uint8_t> bytes = serve::encode_snapshot(snap);
        const Clock::time_point s1 = Clock::now();
        const serve::Snapshot decoded = serve::decode_snapshot(bytes);
        engine.restore_state(decoded.payload);
        const Clock::time_point s2 = Clock::now();
        out.save_ns += ns_between(s0, s1);
        out.restore_ns += ns_between(s1, s2);
        out.snapshot_ns += ns_between(s0, s2);
        out.snapshot_bytes += static_cast<double>(bytes.size());
        ++out.snapshots;
        if (!restore_checked && pending_restore.empty()) {
          pending_restore = decoded.payload;
        }
      }
      const Clock::time_point t1 = Clock::now();
      const double wall =
          ns_between(t0, t1) - (rig->stats.check_ns - check_before);
      out.tick_ms.push_back(wall * 1e-6);
      out.tick_vm_rate.push_back(static_cast<double>(engine.active_vms()) /
                                 (wall * 1e-9));
      out.wall_ns += wall;
      out.vm_periods += engine.active_vms();
      active_vm_seconds +=
          static_cast<double>(engine.active_vms()) * in.config.period_seconds;
      if (!pending_restore.empty() && engine.period() % in.snapshot_every != 0) {
        // The live engine has ticked once past the snapshot.
        check_restore(in, pending_restore, engine, checks);
        pending_restore.clear();
        restore_checked = true;
      }
    }
    out.failed_vm_periods += static_cast<std::uint64_t>(
        std::ceil(engine.unplaced_vm_seconds() / in.config.period_seconds));
    for (std::string& issue : rig->stats.issues) {
      checks.fail("invalid placement: " + issue);
    }
    if (threw || !engine.done()) break;

    const sim::SimResult result = engine.result();
    const std::uint64_t d = digest(result);
    if (!out.first.has_value()) {
      out.first = result;
      out.digest = d;
      out.active_vm_seconds = active_vm_seconds;
    } else if (d != out.digest) {
      checks.fail("SimResult digest differs between repetitions");
    }

    const LayerStats& st = rig->stats;
    out.place_ns += st.place_ns;
    out.decide_ns += st.decide_ns;
    out.placed_vms += st.placed_vms;
    out.candidate_evals += st.candidate_evals;
    out.relaxation_rounds += st.relaxation_rounds;
    out.shard_max_ns += st.shard_max_ns;
    out.reconcile_moves += st.reconcile_moves;
    out.budget_reverted += engine.budget_reverted_moves();
    out.churn_events += engine.churn_arrivals() + engine.churn_departures();
    out.server_crashes += result.server_crashes;
    out.failover_migrations += result.failover_migrations;
    if (rig->metrics) {
      for (const auto& [name, h] : rig->metrics->snapshot().histograms) {
        if (name == "corr_ingest_ns") out.ingest_ns += h.sum;
      }
    }
    if (rig->recorder) {
      for (const obs::PeriodRow& row : rig->recorder->rows()) {
        out.dvfs_decisions += row.dvfs_decisions;
        out.corr_index_bytes += static_cast<double>(row.corr_index_bytes);
      }
    }
    ++out.episodes;
    rig.reset();
  } while (Clock::now() < deadline);
  if (!restore_checked) checks.fail("no checkpoint round trip was checked");
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Tick count, median and the highest percentile with at least ten ticks
/// above it.
void print_ticks(const LoopResult& loop) {
  std::vector<double> t = loop.tick_ms;
  std::sort(t.begin(), t.end());
  const std::size_t n = t.size();
  if (n == 0) return;
  std::printf("  ticks: %zu over %zu episodes, ms min %.3f p10 %.3f p50 %.3f",
              n, loop.episodes, t.front(), quantile(t, 0.1), median(t));
  if (n > 10) {
    std::printf(" p%.1f %.3f", 100.0 * static_cast<double>(n - 10) /
                                   static_cast<double>(n),
                t[n - 11]);
  }
  std::printf(" max %.3f\n", t.back());
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Time-weighted share of active server-seconds spent at the lowest ladder
/// frequency.
double fmin_share(const sim::SimResult& r) {
  double at_fmin = 0.0;
  double total = 0.0;
  for (const auto& levels : r.freq_residency_seconds) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      total += levels[l];
      if (l == 0) at_fmin += levels[l];
    }
  }
  return safe_div(at_fmin, total);
}

/// Heap bytes of the dense correlation state the engine streams: a
/// CostMatrix and a MomentMatrix for the previous and the current period.
double dense_state_bytes(const Inputs& in) {
  const std::size_t n = in.traces.size();
  const double before = heap_in_use_bytes();
  corr::CostMatrix a(n, in.config.reference);
  corr::CostMatrix b(n, in.config.reference);
  corr::MomentMatrix c(n);
  corr::MomentMatrix d(n);
  return heap_in_use_bytes() - before;
}

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (args.workload == w.name) info = &w;
  }
  if (info == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  const std::uint64_t seed = args.seed.value_or(info->default_seed);
  const std::size_t cpus = nproc();
  const std::size_t threads = std::min<std::size_t>(cpus, 4);

  // ---- Set-up, repeated; the last one seeds the first episode. ----
  std::vector<double> setup_s;
  std::vector<double> synth_s;
  std::vector<double> profile_s;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Rig> rig;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    rig.reset();
    inputs.reset();
    const Clock::time_point t0 = Clock::now();
    inputs = std::make_unique<Inputs>(make_inputs(args.workload, seed, threads));
    rig = make_rig(*inputs, /*traced=*/false);
    setup_s.push_back(ns_between(t0, Clock::now()) * 1e-9);
    synth_s.push_back(inputs->synth_s);
    profile_s.push_back(inputs->profile_s);
  }
  const Inputs& in = *inputs;
  const std::size_t periods = rig->engine->total_periods();

  std::printf("workload %s  seed %llu  vms %zu  periods/episode %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(seed),
              in.traces.size(), periods);
  std::printf("nproc %zu  threads: sparse-build %zu, rack-shard %zu, "
              "everything else 1\n",
              cpus,
              in.config.corr_mode == sim::CorrMode::kSparse ? threads : 0,
              in.policy == PolicyKind::kStructureSharded ? threads : 0);

  Checks checks;
  const bool sparse_serve = in.snapshot_every > 0;
  const double untraced_s = args.trace == 1 ? args.seconds / 2 : args.seconds;
  LoopResult plain = run_loop(in, /*traced=*/false, untraced_s, std::move(rig),
                              /*check_restore_once=*/sparse_serve, checks);
  std::optional<LoopResult> traced;
  if (args.trace == 1) {
    traced = run_loop(in, /*traced=*/true, args.seconds / 2, nullptr,
                      /*check_restore_once=*/false, checks);
    if (traced->first.has_value() && traced->digest != plain.digest) {
      checks.fail("SimResult digest differs between traced and untraced runs");
    }
  }

  std::uint64_t attempted = plain.vm_periods;
  std::uint64_t failed = plain.failed_vm_periods;
  if (traced) {
    attempted += traced->vm_periods;
    failed += traced->failed_vm_periods;
  }
  if (!plain.first.has_value()) {
    checks.fail("no episode completed");
    std::printf("check: FAILED\n");
    for (const std::string& n : checks.notes) std::printf("  %s\n", n.c_str());
    print_result(false, std::max<std::uint64_t>(attempted, 1),
                 std::max<std::uint64_t>(failed, 1), {});
    return 1;
  }
  const sim::SimResult& res = *plain.first;
  const double unplaced_frac =
      safe_div(res.unplaced_vm_seconds, plain.active_vm_seconds);
  if (!in.config.faults.any() && res.unplaced_vm_seconds > 0.0) {
    checks.fail("fleet too small: VMs left unplaced without faults");
  }
  if (!(res.total_energy_joules > 0.0)) checks.fail("no energy accounted");

  const double violation_pct = res.overall_violation_fraction * 100.0;
  const double max_violation_pct = res.max_violation_ratio * 100.0;
  const double interference =
      in.config.interference_enabled() ? res.total_interference_degradation
                                       : 0.0;
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      // Low tick quantiles: other tenants of a shared host slow most ticks
      // for minutes at a time, the fastest tenth far less (METRICS.md).
      {"tick_ms_p10", quantile(plain.tick_ms, 0.1), "ms"},
      {"vm_periods_per_s", quantile(plain.tick_vm_rate, 0.9), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"energy_kwh", res.total_energy_joules / 3.6e6, "kWh"},
      {"active_servers_mean", res.mean_active_servers, "count"},
      {"migrated_vms", static_cast<double>(res.total_migrated_vms), "count"},
  };
  // End-to-end too, but outside the result object: they swing between seeds
  // or read 0 on some workloads (METRICS.md).
  const std::vector<Metric> quality = {
      {"violation_pct", violation_pct, "%"},
      {"max_violation_pct", max_violation_pct, "%"},
      {"unplaced_vm_frac", unplaced_frac, "ratio"},
      {"degradation_sum", interference, "ipc_loss"},
  };
  print_table("end-to-end", e2e);
  print_ticks(plain);
  print_table("end-to-end, report only", quality);

  std::vector<Metric> reported = e2e;
  if (traced) {
    const LoopResult& t = *traced;
    const double ticks = static_cast<double>(t.tick_ms.size());
    const double per_tick = ticks > 0 ? 1.0 / ticks : 0.0;
    const double untimed_ns =
        t.wall_ns - t.place_ns - t.ingest_ns - t.decide_ns - t.snapshot_ns;
    const double state_mb =
        in.config.corr_mode == sim::CorrMode::kSparse
            ? t.corr_index_bytes * per_tick / 1e6
            : dense_state_bytes(in) / 1e6;
    const double snaps = static_cast<double>(t.snapshots);
    reported = {
        {"trace.synth_s", median(synth_s), "s"},
        {"cachesim.profile_s", median(profile_s), "s"},
        {"corr.ingest_ms", t.ingest_ns * per_tick * 1e-6, "ms"},
        {"corr.ingest_share", safe_div(t.ingest_ns, t.wall_ns), "ratio"},
        {"corr.state_mb", state_mb, "MB"},
        {"alloc.place_ms", t.place_ns * per_tick * 1e-6, "ms"},
        {"alloc.place_share", safe_div(t.place_ns, t.wall_ns), "ratio"},
        {"alloc.candidate_evals",
         static_cast<double>(t.candidate_evals) * per_tick, "count/tick"},
        {"alloc.relaxation_rounds",
         static_cast<double>(t.relaxation_rounds) * per_tick, "count/tick"},
        {"alloc.evals_per_placed_vm",
         safe_div(static_cast<double>(t.candidate_evals),
                  static_cast<double>(t.placed_vms)),
         "count/vm"},
        {"alloc.shard_max_ms", t.shard_max_ns * per_tick * 1e-6, "ms"},
        {"alloc.reconcile_moves",
         static_cast<double>(t.reconcile_moves) * per_tick, "count/tick"},
        {"alloc.budget_reverted_moves",
         static_cast<double>(t.budget_reverted) * per_tick, "count/tick"},
        {"dvfs.decide_us", t.decide_ns * per_tick * 1e-3, "us"},
        {"dvfs.decisions", static_cast<double>(t.dvfs_decisions) * per_tick,
         "count/tick"},
        {"dvfs.fmin_share", fmin_share(res), "ratio"},
        {"serve.untimed_ms", untimed_ns * per_tick * 1e-6, "ms"},
        {"serve.untimed_share", safe_div(untimed_ns, t.wall_ns), "ratio"},
        {"serve.save_state_ms", safe_div(t.save_ns, snaps) * 1e-6, "ms"},
        {"serve.snapshot_mb", safe_div(t.snapshot_bytes, snaps) / 1e6, "MB"},
        {"serve.restore_state_ms", safe_div(t.restore_ns, snaps) * 1e-6, "ms"},
        {"serve.churn_events", static_cast<double>(t.churn_events) * per_tick,
         "count/tick"},
        {"sim.server_crashes", static_cast<double>(t.server_crashes) * per_tick,
         "count/tick"},
        {"sim.failover_migrations",
         static_cast<double>(t.failover_migrations) * per_tick, "count/tick"},
        {"sim.violation_pct", violation_pct, "%"},
        {"sim.max_violation_pct", max_violation_pct, "%"},
        {"sim.unplaced_vm_frac", unplaced_frac, "ratio"},
        {"sim.degradation_sum", interference, "ipc_loss"},
        {"obs.trace_overhead_pct",
         (safe_div(median(t.tick_ms), median(plain.tick_ms)) - 1.0) * 100.0,
         "%"},
    };
    print_table("per-layer (instrumented run)", reported);
    print_ticks(t);
  }

  std::printf("check: %s\n", checks.ok ? "ok" : "FAILED");
  for (const std::string& n : checks.notes) std::printf("  %s\n", n.c_str());
  print_result(checks.ok, std::max<std::uint64_t>(attempted, 1), failed,
               reported);
  return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cava_e2e_bench: %s\n", e.what());
    return 2;
  }
}
