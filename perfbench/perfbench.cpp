// The repository benchmark. It drives the fademl library only through its
// public API and times every layer from outside, by wrapping the calls:
//
//   craft     {L-BFGS, FGSM, BIM} x {attacker-blind (TM-I gradients),
//             filter-aware (TM-III gradients)} x deployed defenses {lap32,
//             dct50, bits5+median1}, at the figures' budget
//             (bench::budget_for)
//   evaluate  core::InferencePipeline::accuracy under TM-III for every filter
//             of filters::paper_filter_sweep() plus dct50 and bits5+median1
//   serve     a seeded Poisson open loop into serve::InferenceService
//             (LAP(32), TM-III) at a light and a heavy rate, and a rate
//             ladder for the highest rate that meets the p99 limit
//   train     nn::Trainer::fit of the default core::ExperimentConfig from
//             scratch, then nn::{save,verify,load}_checkpoint
//
// Every run runs all four phases, interleaved in rounds. The workload picks
// the API the repository's callers use for craft and serve:
//   batched    attacks::BatchAttack::run over the whole cohort (the figure
//              benches fig5-fig9 and grid_common), serving micro-batched
//              up to 8
//   per_image  attacks::Attack::run from make_attack / make_fademl on one
//              image, then InferencePipeline::predict (ablation_defense,
//              core::analyze_scenario, examples/defense_evaluation),
//              serving at ServiceConfig's default max_batch of 1
// Evaluation and training have one form in the repository; both workloads
// run it.
//
//   perfbench --model-dir <dir> --work <dir> --workload batched|per_image
//             --seed <n> --seconds <s> --trace 0|1
//   perfbench --prepare-model <dir>
//
// --prepare-model builds the default experiment with core::make_experiment
// cached in <dir>, which trains it there. A run only loads it: setup is
// core::make_experiment on that cache after verify_checkpoint, so a
// checkpoint that does not verify, or a model below the clean top-1 floor,
// fails the run instead of retraining.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it stamps provenance and per-phase operation
// counts. Any failed output check exits 1.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_lib.hpp"
#include "fademl/fademl.hpp"

namespace {

using namespace fademl;
using perfbench::Clock;
using perfbench::ms_between;
using perfbench::ScopedSpan;

/// Clean top-1 the prepared model must reach before anything is timed
/// (full default training reaches about 0.87; chance is 1/43).
constexpr double kTop1Floor = 0.80;
/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Rounds the measured window is split into.
constexpr int kRounds = 6;
/// p99 limit of the serve rate ladder.
constexpr double kServeP99LimitMs = 25.0;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string model_dir;
  std::string work;
  std::string prepare;
};

/// How a workload runs craft and serve (see the top of this file).
struct Regime {
  bool batched = true;  ///< BatchAttack cohorts; else one Attack::run per image
  int64_t craft_pairs = 0;
  size_t serve_max_batch = 1;
  double light_rps = 0.0;
  double heavy_rps = 0.0;
  std::vector<double> ladder_rps;
};

Regime regime_for(const std::string& workload) {
  Regime r;
  if (workload == "batched") {
    r.batched = true;
    // 27 seeded pairs: with 11, the seeded images' difficulty alone moved
    // craft.cells_per_s by 14 % (quartile spread over seeds).
    r.craft_pairs = 32;
    r.serve_max_batch = 8;
    r.light_rps = 1500.0;
    r.heavy_rps = 4000.0;
    r.ladder_rps = perfbench::rate_ladder(1500.0, 15000.0);
  } else if (workload == "per_image") {
    r.batched = false;
    r.craft_pairs = 8;
    r.serve_max_batch = 1;
    r.light_rps = 1500.0;
    r.heavy_rps = 2000.0;
    r.ladder_rps = perfbench::rate_ladder(1000.0, 7500.0);
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (batched | per_image)");
  }
  return r;
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Failed output checks; any entry fails the run.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Operations attempted and failed, per phase.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct ProcTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

ProcTimes proc_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t pool_jobs() {
  return obs::MetricsRegistry::global().counter("pool.jobs").value();
}

/// One diagnostic line on stderr: the per-pass series behind a median.
void log_series(const std::string& what, const std::vector<double>& v) {
  std::fprintf(stderr, "[perfbench] %s:", what.c_str());
  for (double x : v) {
    std::fprintf(stderr, " %.4g", x);
  }
  std::fprintf(stderr, "\n");
}

double seconds_since(Clock::time_point t) {
  return ms_between(t, Clock::now()) / 1000.0;
}

/// Per-phase process accounting: CPU time and thread-pool jobs consumed
/// inside the phase's rounds (between each `begin` and `end`).
class PhaseAccount {
 public:
  void begin() {
    cpu_ = proc_times();
    jobs_ = pool_jobs();
  }
  void end() {
    const ProcTimes now = proc_times();
    user_s_ += now.user_s - cpu_.user_s;
    sys_s_ += now.sys_s - cpu_.sys_s;
    total_jobs_ += pool_jobs() - jobs_;
  }
  void report(const std::string& phase, int64_t passes,
              std::vector<Metric>& out) const {
    out.push_back({"proc." + phase + ".user_s", user_s_, "s"});
    out.push_back({"proc." + phase + ".sys_s", sys_s_, "s"});
    out.push_back({"parallel." + phase + ".pool_jobs",
                   static_cast<double>(total_jobs_) /
                       static_cast<double>(std::max<int64_t>(1, passes)),
                   "count"});
  }

 private:
  ProcTimes cpu_;
  int64_t jobs_ = 0;
  double user_s_ = 0.0;
  double sys_s_ = 0.0;
  int64_t total_jobs_ = 0;
};

void add_plan_metrics(const std::string& phase, const plan::PlanStats& s,
                      std::vector<Metric>& out) {
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  const double batches = static_cast<double>(s.plan_batches + s.tape_batches);
  out.push_back({"plan." + phase + ".compiles",
                 static_cast<double>(s.compiles), "count"});
  out.push_back({"plan." + phase + ".cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0,
                 "ratio"});
  out.push_back({"plan." + phase + ".replay_share",
                 batches > 0 ? static_cast<double>(s.plan_batches) / batches
                             : 0.0,
                 "ratio"});
}

plan::PlanStats operator+(plan::PlanStats a, const plan::PlanStats& b) {
  a.plan_batches += b.plan_batches;
  a.tape_batches += b.tape_batches;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.compiles += b.compiles;
  return a;
}

// ---- model and data ------------------------------------------------------------

/// The default experiment with its model cached in `dir`.
core::ExperimentConfig experiment_config(const std::string& dir) {
  core::ExperimentConfig cfg;
  cfg.cache_dir = dir;
  cfg.verbose = false;
  return cfg;
}

// The train phase fits with its own copy of core::make_experiment's recipe:
// it needs the trainer's epoch callback, a seed of its own and no snapshot
// files. --prepare-model checks that the copy trains bitwise the same model
// as make_experiment does, so the two cannot drift apart unnoticed.

/// A freshly initialized default-architecture VGG (weights from `seed`).
std::shared_ptr<nn::Sequential> make_model(const core::ExperimentConfig& cfg,
                                           uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5ull);
  nn::VggConfig vgg = nn::VggConfig::scaled(cfg.width_divisor);
  vgg.input_size = cfg.image_size;
  return nn::make_vggnet(vgg, rng);
}

/// make_experiment's SGD recipe, for `epochs` epochs.
double fit_model(nn::Sequential& model, const core::ExperimentConfig& cfg,
                 const data::Dataset& train, uint64_t seed, int64_t epochs,
                 const nn::Trainer::EpochCallback& on_epoch) {
  nn::SGD::Config sgd_config;
  sgd_config.lr = cfg.lr;
  sgd_config.momentum = 0.9f;
  sgd_config.weight_decay = 5e-4f;
  nn::SGD sgd(model.named_parameters(), sgd_config);
  nn::Trainer::Config tconfig;
  tconfig.epochs = epochs;
  tconfig.batch_size = cfg.batch_size;
  tconfig.lr_decay = cfg.lr_decay;
  nn::Trainer trainer(model, sgd, tconfig);
  Rng train_rng(seed + 1);
  return trainer.fit(train.images, train.labels, train_rng, on_epoch);
}

uint32_t parameter_crc(nn::Module& model) {
  uint32_t crc = 0;
  for (const nn::NamedParam& p : model.named_parameters()) {
    const Tensor& v = p.param.value();
    crc = crc32(v.data(), static_cast<size_t>(v.numel()) * sizeof(float), crc);
  }
  return crc;
}

bool same_parameters(nn::Module& a, nn::Module& b) {
  const std::vector<nn::NamedParam> pa = a.named_parameters();
  const std::vector<nn::NamedParam> pb = b.named_parameters();
  if (pa.size() != pb.size()) {
    return false;
  }
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& x = pa[i].param.value();
    const Tensor& y = pb[i].param.value();
    if (x.numel() != y.numel() ||
        std::memcmp(x.data(), y.data(),
                    static_cast<size_t>(x.numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void require_verified(const std::string& path, perfbench::Tracer& tracer) {
  ScopedSpan span(tracer, "nn.checkpoint_verify");
  const nn::CheckpointVerdict verdict = nn::verify_checkpoint(path);
  if (verdict.status != nn::CheckpointStatus::kOk) {
    throw std::runtime_error(
        "model checkpoint " + path + " does not verify (" +
        (verdict.status == nn::CheckpointStatus::kMissing ? "missing"
                                                          : verdict.detail) +
        ")");
  }
}

std::shared_ptr<nn::Sequential> load_verified(const core::ExperimentConfig& cfg,
                                              const std::string& path,
                                              perfbench::Tracer& tracer) {
  require_verified(path, tracer);
  auto model = make_model(cfg, cfg.seed);
  {
    ScopedSpan span(tracer, "nn.checkpoint_load");
    nn::load_checkpoint(*model, path);
  }
  model->set_training(false);
  return model;
}

void require_top1_floor(double top1) {
  if (top1 < kTop1Floor) {
    throw std::runtime_error("model clean top-1 " + std::to_string(top1) +
                             " is below the floor " +
                             std::to_string(kTop1Floor));
  }
}

/// Trains the default experiment into `dir` with core::make_experiment,
/// then checks it and the train phase's copy of the recipe.
int prepare_model(const std::string& dir) {
  const auto t0 = Clock::now();
  core::ExperimentConfig cfg = experiment_config(dir);
  cfg.verbose = true;
  const core::Experiment exp = core::make_experiment(cfg);
  perfbench::Tracer untraced;
  require_verified(cfg.checkpoint_path(), untraced);
  std::fprintf(stderr,
               "[perfbench] prepared model in %.1f s: clean top-1 %.4f, "
               "top-5 %.4f, parameter crc %08x\n",
               seconds_since(t0), exp.clean_test.top1, exp.clean_test.top5,
               parameter_crc(*exp.model));
  require_top1_floor(exp.clean_test.top1);

  core::ExperimentConfig one_epoch = experiment_config(dir + "/recipe-check");
  one_epoch.epochs = 1;
  const core::Experiment reference = core::make_experiment(one_epoch);
  auto copy = make_model(one_epoch, one_epoch.seed);
  fit_model(*copy, one_epoch, exp.dataset.train, one_epoch.seed, 1, nullptr);
  std::filesystem::remove_all(one_epoch.cache_dir);
  if (!same_parameters(*copy, *reference.model)) {
    throw std::runtime_error(
        "the train phase's recipe no longer trains the model "
        "core::make_experiment trains; update make_model / fit_model");
  }
  return 0;
}

// ---- setup -------------------------------------------------------------------------

/// One setup: core::make_experiment on the prepared cache (data synthesis,
/// checkpoint load, clean evaluation), after a verify_checkpoint that keeps
/// it from ever training.
core::Experiment run_setup(const core::ExperimentConfig& cfg,
                           perfbench::Tracer& tracer) {
  require_verified(cfg.checkpoint_path(), tracer);
  core::Experiment exp;
  {
    ScopedSpan span(tracer, "core.make_experiment");
    exp = core::make_experiment(cfg);
  }
  exp.model->set_training(false);
  require_top1_floor(exp.clean_test.top1);
  return exp;
}

// ---- craft ---------------------------------------------------------------------------

struct Defense {
  std::string name;
  std::unique_ptr<core::InferencePipeline> pipeline;
};

std::vector<Defense> make_defenses(const std::shared_ptr<nn::Sequential>& m) {
  std::vector<Defense> d;
  d.push_back({"lap32", std::make_unique<core::InferencePipeline>(
                            m, filters::make_lap(32))});
  d.push_back({"dct50", std::make_unique<core::InferencePipeline>(
                            m, filters::make_dct_quant(50))});
  d.push_back({"squeeze", std::make_unique<core::InferencePipeline>(
                              m, filters::parse_filter("bits5+median1"))});
  return d;
}

const char* kind_name(attacks::AttackKind kind) {
  switch (kind) {
    case attacks::AttackKind::kLbfgs:
      return "lbfgs";
    case attacks::AttackKind::kFgsm:
      return "fgsm";
    case attacks::AttackKind::kBim:
      return "bim";
    default:
      return "other";
  }
}

struct CraftPass {
  double seconds = 0.0;
  double attack_seconds = 0.0;
  int64_t cells = 0;
  int64_t failed_cells = 0;
  int64_t grads = 0;
  int64_t aware_cells = 0;
  int64_t aware_successes = 0;
  int64_t lap_blind_successes = 0;
  int64_t lap_aware_successes = 0;
  uint32_t fingerprint = 0;
  /// Wall and attack time of each (attack, mode, defense) step, in the
  /// fixed order every pass runs them.
  std::vector<double> step_seconds;
  std::vector<double> step_attack_seconds;
};

/// The craft phase across rounds: the seeded cohort is fixed at
/// construction; each round runs whole passes of the attack matrix.
class Craft {
 public:
  Craft(const core::Experiment& exp, const Regime& regime, uint64_t seed,
        Checks& checks, perfbench::Tracer& tracer)
      : regime_(regime),
        checks_(checks),
        tracer_(tracer),
        blind_(std::make_unique<core::InferencePipeline>(
            exp.model, filters::make_identity())),
        defenses_(make_defenses(exp.model)) {
    // The paper's five payload scenarios, on the canonical samples they
    // start from, lead the cohort; the rest of its class pairs get test
    // images the clean model classifies correctly, picked by the seed. The
    // fixed part keeps the cohort's difficulty, and with it the attack
    // time, from swinging with the seed.
    const data::Dataset& test = exp.dataset.test;
    std::vector<perfbench::ClassPair> scenarios;
    for (const core::Scenario& sc : core::paper_scenarios()) {
      scenarios.push_back({sc.source_class, sc.target_class});
      sources_.push_back(
          data::canonical_sample(sc.source_class, exp.config.image_size));
      targets_.push_back(sc.target_class);
    }
    const std::vector<core::Prediction> clean = blind_->predict_batch(
        nn::stack_images(test.images), core::ThreatModel::kI);
    std::vector<int64_t> candidates;
    for (size_t i = 0; i < clean.size(); ++i) {
      if (clean[i].label == test.labels[i]) {
        candidates.push_back(static_cast<int64_t>(i));
      }
    }
    std::vector<perfbench::ClassPair> pairs = perfbench::cohort_class_pairs(
        scenarios, test.num_classes, regime.craft_pairs);
    pairs.erase(pairs.begin(),
                pairs.begin() + static_cast<std::ptrdiff_t>(scenarios.size()));
    for (const perfbench::AttackPair& pair :
         perfbench::make_cohort(seed, pairs, candidates, test.labels)) {
      sources_.push_back(test.images[static_cast<size_t>(pair.source)]);
      targets_.push_back(pair.target);
    }
  }

  void round(double budget_s) {
    account_.begin();
    const auto t0 = Clock::now();
    do {
      passes_.push_back(pass());
    } while (seconds_since(t0) < budget_s);
    account_.end();
  }

  void finish(Ops& ops, std::vector<Metric>& e2e, std::vector<Metric>& layer) {
    const CraftPass& first = passes_.front();
    checks_.expect(passes_.size() >= 2, "craft: fewer than two passes");
    for (size_t i = 1; i < passes_.size(); ++i) {
      checks_.expect(passes_[i].fingerprint == first.fingerprint &&
                         passes_[i].aware_successes == first.aware_successes,
                     "craft: pass " + std::to_string(i) +
                         " differs from pass 0 (adversarials or successes)");
    }
    checks_.expect(first.lap_aware_successes >= first.lap_blind_successes,
                   "craft: filter-aware success through lap32 (" +
                       std::to_string(first.lap_aware_successes) +
                       ") is below attacker-blind success (" +
                       std::to_string(first.lap_blind_successes) + ")");
    std::vector<double> cells_rate;
    std::vector<std::vector<double>> step_seconds;
    std::vector<std::vector<double>> step_attack_seconds;
    for (const CraftPass& p : passes_) {
      cells_rate.push_back(static_cast<double>(p.cells) / p.seconds);
      step_seconds.push_back(p.step_seconds);
      step_attack_seconds.push_back(p.step_attack_seconds);
      ops.attempted += p.cells;
      ops.failed += p.failed_cells;
    }
    log_series("craft cells/s per pass", cells_rate);
    e2e.push_back({"craft.cells_per_s",
                   perfbench::best_composite_rate(
                       static_cast<double>(first.cells), step_seconds),
                   "1/s"});
    e2e.push_back({"craft.grads_per_s",
                   perfbench::best_composite_rate(
                       static_cast<double>(first.grads), step_attack_seconds),
                   "1/s"});
    e2e.push_back({"craft.aware_success",
                   static_cast<double>(first.aware_successes) /
                       static_cast<double>(first.aware_cells),
                   "ratio"});
    layer.push_back({"attacks.grads_per_cell",
                     static_cast<double>(first.grads) /
                         static_cast<double>(first.cells),
                     "count"});
    layer.push_back({"attacks.success_per_grad",
                     static_cast<double>(first.aware_successes) /
                         static_cast<double>(first.grads),
                     "ratio"});
    add_plan_metrics("craft", plan_stats(), layer);
    account_.report("craft", static_cast<int64_t>(passes_.size()), layer);
    std::fprintf(stderr,
                 "[perfbench] craft: %zu passes of %lld cells (%lld pairs), "
                 "%lld grads/pass, aware success %lld/%lld\n",
                 passes_.size(), static_cast<long long>(first.cells),
                 static_cast<long long>(regime_.craft_pairs),
                 static_cast<long long>(first.grads),
                 static_cast<long long>(first.aware_successes),
                 static_cast<long long>(first.aware_cells));
  }

 private:
  /// Adversarials of one attack over the cohort, and which of them reach
  /// their target under TM-III through the deployed defense.
  struct Cells {
    std::vector<attacks::AttackResult> results;
    int64_t hits = 0;
  };

  static std::string span_name(attacks::AttackKind kind, bool aware) {
    return std::string("attacks.") + kind_name(kind) +
           (aware ? ".aware" : ".blind");
  }

  /// The batched API: one BatchAttack::run over the cohort, gradients
  /// routed through `p`.
  std::vector<attacks::AttackResult> craft_batch(
      attacks::AttackKind kind, bool aware, const core::InferencePipeline& p,
      CraftPass& tally) {
    const attacks::BatchAttack driver(kind, bench::budget_for(kind), aware);
    std::vector<attacks::AttackResult> out;
    const auto t0 = Clock::now();
    {
      ScopedSpan s(tracer_, span_name(kind, aware));
      out = driver.run(p, sources_, targets_);
    }
    tally.attack_seconds += seconds_since(t0);
    return out;
  }

  /// Cells of `results` whose TM-III label under `d` is the target, from
  /// one predict_probs_batch.
  int64_t batch_hits(const std::vector<attacks::AttackResult>& results,
                     const Defense& d) {
    std::vector<Tensor> advs;
    for (const attacks::AttackResult& r : results) {
      advs.push_back(r.adversarial);
    }
    Tensor probs;
    {
      ScopedSpan s(tracer_, "core.predict_probs_batch");
      probs = d.pipeline->predict_probs_batch(nn::stack_images(advs),
                                              core::ThreatModel::kIII);
    }
    const int64_t classes = probs.dim(1);
    int64_t hits = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const float* row = probs.data() + static_cast<int64_t>(i) * classes;
      if (std::max_element(row, row + classes) - row == targets_[i]) {
        ++hits;
      }
    }
    return hits;
  }

  /// The per-image API: Attack::run on each pair against the deployed
  /// pipeline, then InferencePipeline::predict of the adversarial under
  /// TM-III, as ablation_defense and core::analyze_scenario do.
  Cells craft_each(attacks::AttackKind kind, bool aware, const Defense& d,
                   CraftPass& tally) {
    const attacks::AttackPtr attack =
        aware ? attacks::make_fademl(kind, bench::budget_for(kind))
              : attacks::make_attack(kind, bench::budget_for(kind));
    Cells out;
    const auto t0 = Clock::now();
    {
      ScopedSpan s(tracer_, span_name(kind, aware));
      for (size_t i = 0; i < sources_.size(); ++i) {
        out.results.push_back(attack->run(*d.pipeline, sources_[i], targets_[i]));
      }
    }
    tally.attack_seconds += seconds_since(t0);
    ScopedSpan s(tracer_, "core.predict");
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (d.pipeline->predict(out.results[i].adversarial,
                              core::ThreatModel::kIII)
              .label == targets_[i]) {
        ++out.hits;
      }
    }
    return out;
  }

  /// Output checks and the pass fingerprint over one attack's adversarials.
  void check(const std::vector<attacks::AttackResult>& results,
             attacks::AttackKind kind, bool aware, CraftPass& tally) {
    const float eps = bench::budget_for(kind).epsilon;
    for (size_t i = 0; i < results.size(); ++i) {
      const attacks::AttackResult& r = results[i];
      tally.grads += r.iterations;
      const float* adv = r.adversarial.data();
      const float* src = sources_[i].data();
      bool finite = true;
      bool in_range = true;
      bool in_ball = true;
      for (int64_t k = 0; k < r.adversarial.numel(); ++k) {
        finite = finite && std::isfinite(adv[k]);
        in_range = in_range && adv[k] >= 0.0f && adv[k] <= 1.0f;
        in_ball = in_ball && std::fabs(adv[k] - src[k]) <= eps + 1e-5f;
      }
      checks_.expect(finite && in_range && in_ball,
                     span_name(kind, aware) + " pair " + std::to_string(i) +
                         ": adversarial not finite, outside [0, 1] or "
                         "outside its epsilon-ball");
      tally.fingerprint =
          crc32(adv, static_cast<size_t>(r.adversarial.numel()) * sizeof(float),
                tally.fingerprint);
      tally.fingerprint = crc32(&r.iterations, sizeof r.iterations,
                                tally.fingerprint);
    }
  }

  /// One attack against one defense. Batched, the attacker-blind cohort is
  /// crafted once on the undefended TM-I gradient (`blind`) and deployed
  /// against every defense; per image, every cell runs its own attack, as
  /// the per-image callers do.
  Cells cells(attacks::AttackKind kind, bool aware, const Defense& d,
              std::vector<attacks::AttackResult>& blind, CraftPass& tally) {
    if (!regime_.batched) {
      Cells c = craft_each(kind, aware, d, tally);
      check(c.results, kind, aware, tally);
      return c;
    }
    Cells c;
    if (aware) {
      c.results = craft_batch(kind, true, *d.pipeline, tally);
      check(c.results, kind, true, tally);
    } else {
      if (blind.empty()) {
        blind = craft_batch(kind, false, *blind_, tally);
        check(blind, kind, false, tally);
      }
      c.results = blind;
    }
    c.hits = batch_hits(c.results, d);
    return c;
  }

  CraftPass pass() {
    ScopedSpan span(tracer_, "craft.pass");
    CraftPass p;
    const auto t0 = Clock::now();
    const auto pairs = static_cast<int64_t>(sources_.size());
    for (attacks::AttackKind kind : bench::paper_attack_kinds()) {
      std::vector<attacks::AttackResult> blind;
      for (bool aware : {false, true}) {
        for (const Defense& d : defenses_) {
          const auto step_start = Clock::now();
          const double attack_before = p.attack_seconds;
          try {
            const int64_t hits = cells(kind, aware, d, blind, p).hits;
            if (aware) {
              p.aware_successes += hits;
            }
            if (d.name == "lap32") {
              (aware ? p.lap_aware_successes : p.lap_blind_successes) += hits;
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "[perfbench] %s via %s threw: %s\n",
                         span_name(kind, aware).c_str(), d.name.c_str(),
                         e.what());
            p.failed_cells += pairs;
          }
          p.step_seconds.push_back(seconds_since(step_start));
          p.step_attack_seconds.push_back(p.attack_seconds - attack_before);
          p.cells += pairs;
          if (aware) {
            p.aware_cells += pairs;
          }
        }
      }
    }
    p.seconds = seconds_since(t0);
    return p;
  }

  [[nodiscard]] plan::PlanStats plan_stats() const {
    plan::PlanStats s = blind_->plan_stats();
    for (const Defense& d : defenses_) {
      s = s + d.pipeline->plan_stats();
    }
    return s;
  }

  const Regime& regime_;
  Checks& checks_;
  perfbench::Tracer& tracer_;
  std::unique_ptr<core::InferencePipeline> blind_;  ///< no filter, TM-I
  std::vector<Defense> defenses_;
  std::vector<Tensor> sources_;
  std::vector<int64_t> targets_;
  PhaseAccount account_;
  std::vector<CraftPass> passes_;
};

// ---- evaluate -----------------------------------------------------------------------------

struct EvalPass {
  double seconds = 0.0;
  std::vector<double> step_seconds;  ///< one accuracy() call per pipeline
  int64_t images = 0;
  std::vector<double> top1;
  std::vector<double> top5;
};

EvalPass evaluate_pass(
    const std::vector<std::unique_ptr<core::InferencePipeline>>& pipelines,
    const data::Dataset& test, perfbench::Tracer& tracer) {
  ScopedSpan span(tracer, "evaluate.pass");
  EvalPass p;
  const auto t0 = Clock::now();
  for (const auto& pipeline : pipelines) {
    core::InferencePipeline::Accuracy acc;
    const auto step_start = Clock::now();
    {
      ScopedSpan s(tracer, "core.accuracy");
      acc = pipeline->accuracy(test.images, test.labels,
                               core::ThreatModel::kIII);
    }
    p.step_seconds.push_back(seconds_since(step_start));
    p.top1.push_back(acc.top1);
    p.top5.push_back(acc.top5);
    p.images += static_cast<int64_t>(test.images.size());
  }
  p.seconds = seconds_since(t0);
  return p;
}

std::vector<std::unique_ptr<core::InferencePipeline>> evaluate_pipelines(
    const std::shared_ptr<nn::Sequential>& model) {
  std::vector<filters::FilterPtr> filters = filters::paper_filter_sweep();
  filters.push_back(filters::make_dct_quant(50));
  filters.push_back(filters::parse_filter("bits5+median1"));
  std::vector<std::unique_ptr<core::InferencePipeline>> out;
  for (const filters::FilterPtr& f : filters) {
    out.push_back(std::make_unique<core::InferencePipeline>(model, f));
  }
  return out;
}

class Evaluate {
 public:
  Evaluate(const core::Experiment& exp, Checks& checks,
           perfbench::Tracer& tracer)
      : checks_(checks),
        tracer_(tracer),
        test_(exp.dataset.test),
        pipelines_(evaluate_pipelines(exp.model)) {}

  void round(double budget_s) {
    account_.begin();
    const auto t0 = Clock::now();
    do {
      passes_.push_back(evaluate_pass(pipelines_, test_, tracer_));
    } while (seconds_since(t0) < budget_s);
    account_.end();
  }

  void finish(Ops& ops, std::vector<Metric>& e2e, std::vector<Metric>& layer) {
    checks_.expect(passes_.size() >= 2, "evaluate: fewer than two passes");
    std::vector<double> rate;
    std::vector<std::vector<double>> step_seconds;
    for (size_t i = 0; i < passes_.size(); ++i) {
      checks_.expect(passes_[i].top1 == passes_[0].top1 &&
                         passes_[i].top5 == passes_[0].top5,
                     "evaluate: accuracies of pass " + std::to_string(i) +
                         " differ from pass 0");
      rate.push_back(static_cast<double>(passes_[i].images) /
                     passes_[i].seconds);
      step_seconds.push_back(passes_[i].step_seconds);
      ops.attempted += passes_[i].images;
    }
    double top5 = 0.0;
    for (double v : passes_[0].top5) {
      top5 += v;
    }
    log_series("evaluate images/s per pass", rate);
    e2e.push_back({"evaluate.images_per_s",
                   perfbench::best_composite_rate(
                       static_cast<double>(passes_[0].images), step_seconds),
                   "1/s"});
    e2e.push_back({"evaluate.top5_mean",
                   top5 / static_cast<double>(passes_[0].top5.size()),
                   "ratio"});
    plan::PlanStats stats;
    for (const auto& p : pipelines_) {
      stats = stats + p->plan_stats();
    }
    add_plan_metrics("evaluate", stats, layer);
    account_.report("evaluate", static_cast<int64_t>(passes_.size()), layer);
    std::fprintf(stderr, "[perfbench] evaluate: %zu passes of %lld images\n",
                 passes_.size(), static_cast<long long>(passes_[0].images));
  }

 private:
  Checks& checks_;
  perfbench::Tracer& tracer_;
  const data::Dataset& test_;
  std::vector<std::unique_ptr<core::InferencePipeline>> pipelines_;
  PhaseAccount account_;
  std::vector<EvalPass> passes_;
};

// ---- serve ----------------------------------------------------------------------------------

struct Segment {
  perfbench::LatencySeries latencies;  ///< (due s, ms) per completed request
  std::vector<double> lag_ms;                        ///< generator lateness
  int64_t sent = 0;
  int64_t failed = 0;
};

/// The serve phase: each round starts a fresh service (it lowers the
/// global intra-op thread count for its lifetime, so it must not outlive
/// the round), warms it, and runs one light and one heavy segment; the
/// rate ladder runs once after the rounds.
class Serve {
 public:
  static constexpr int64_t kPool = 64;
  static constexpr int64_t kReplicas = 2;

  Serve(const core::Experiment& exp, const Regime& regime, uint64_t seed,
        Checks& checks, perfbench::Tracer& tracer)
      : exp_(exp),
        regime_(regime),
        seed_(seed),
        checks_(checks),
        tracer_(tracer) {
    // The request images: a seeded draw from the test set.
    const std::vector<Tensor>& test = exp.dataset.test.images;
    perfbench::SeedStream pick(perfbench::derive_seed(seed, 3));
    for (int64_t i = 0; i < kPool; ++i) {
      pool_.push_back(test[pick.below(test.size())]);
    }
    const core::InferencePipeline reference(exp.model, filters::make_lap(32));
    reference_ = reference.predict_probs_batch(nn::stack_images(pool_),
                                               core::ThreatModel::kIII);
  }

  void round(double budget_s) {
    account_.begin();
    // Each segment holds enough requests for at least one p99 window.
    const double need = 1.25 * static_cast<double>(perfbench::kWindowSamples);
    const double light_s = std::max(0.5 * budget_s, need / regime_.light_rps);
    const double heavy_s = std::max(0.4 * budget_s, need / regime_.heavy_rps);
    auto service = start();
    segments_.push_back(
        run(*service, schedule(regime_.light_rps, 0.1 * budget_s)));
    segments_.push_back(run(*service, schedule(regime_.light_rps, light_s)));
    light_.push_back(segments_.back().latencies);
    segments_.push_back(run(*service, schedule(regime_.heavy_rps, heavy_s)));
    heavy_.push_back(segments_.back().latencies);
    stop(*service);
    account_.end();
  }

  /// One climb of the rate ladder: a binary search for the highest rate
  /// that holds, running each probed rate for rung_seconds(rate, min_s). A
  /// rate holds when two of up to three attempts hold, so neither a lucky
  /// burst nor a transient stall of the machine decides a rung alone.
  /// serve.max_rps is the best climb: other tenants of the machine can only
  /// lower a climb (see best_rate).
  void ladder(double min_s) {
    account_.begin();
    auto service = start();
    const std::vector<double>& rates = regime_.ladder_rps;
    size_t lo = 0;  // rates[lo - 1] holds (lo == 0: none known to)
    size_t hi = rates.size();  // rates[hi] misses (hi == size: none known to)
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const double rung_s = perfbench::rung_seconds(rates[mid], min_s);
      int holds = 0;
      int misses = 0;
      while (holds < 2 && misses < 2) {
        segments_.push_back(run(*service, schedule(rates[mid], rung_s)));
        const bool held = perfbench::rung_holds(segments_.back().latencies,
                                                segments_.back().failed,
                                                rung_s, kServeP99LimitMs);
        (held ? holds : misses) += 1;
      }
      if (holds == 2) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    climbs_.push_back(lo == 0 ? 0.0 : rates[lo - 1]);
    stop(*service);
    account_.end();
  }

  void finish(Ops& ops, std::vector<Metric>& e2e, std::vector<Metric>& layer) {
    auto report = [&](const char* name, double rate,
                      const std::vector<perfbench::LatencySeries>& segs) {
      const perfbench::WindowedLatency w = perfbench::windowed_latency(segs);
      const std::string prefix = std::string("serve.") + name;
      e2e.push_back({prefix + ".p50_ms", w.p50_ms, "ms"});
      // The tail swings with the machine's load far beyond any usable
      // bound, so it is a traced, per-layer figure.
      layer.push_back({prefix + ".p99_ms", w.p99_ms, "ms"});
      layer.push_back({prefix + ".samples", static_cast<double>(w.samples),
                       "count"});
      log_series(prefix + " window p50 ms", w.window_p50s);
      log_series(prefix + " window p99 ms", w.window_p99s);
      std::fprintf(stderr,
                   "[perfbench] serve %s %.0f rps, %lld samples: calmest "
                   "window p50 %.3f ms, p99 %.3f ms (median of %lld windows "
                   "of >= %lld)\n",
                   name, rate, static_cast<long long>(w.samples), w.p50_ms,
                   w.p99_ms, static_cast<long long>(w.windows),
                   static_cast<long long>(w.min_window_samples));
    };
    report("light", regime_.light_rps, light_);
    report("heavy", regime_.heavy_rps, heavy_);
    log_series("serve ladder climbs rps", climbs_);
    e2e.push_back({"serve.max_rps", perfbench::best_rate(climbs_), "1/s"});

    std::vector<double> lag;
    for (const Segment& s : segments_) {
      ops.attempted += s.sent;
      ops.failed += s.failed;
      lag.insert(lag.end(), s.lag_ms.begin(), s.lag_ms.end());
    }
    checks_.expect(mismatches_ == 0,
                   "serve: " + std::to_string(mismatches_) +
                       " served probability rows differ from "
                       "predict_probs_batch on the same image");
    checks_.expect(degraded_ == 0, "serve: degraded results were served");
    // Without micro-batching (max_batch 1) every request is its own batch.
    layer.push_back({"serve.mean_occupancy",
                     batches_ > 0 ? occupancy_sum_ / static_cast<double>(batches_)
                                  : 1.0,
                     "count"});
    layer.push_back({"serve.shed", static_cast<double>(shed_), "count"});
    layer.push_back({"serve.timed_out", static_cast<double>(timed_out_),
                     "count"});
    layer.push_back({"serve.degraded", static_cast<double>(degraded_),
                     "count"});
    layer.push_back(
        {"serve.gen_lag_ms", perfbench::percentile(lag, 99.0), "ms"});
    add_plan_metrics("serve", plan_, layer);
    account_.report("serve", static_cast<int64_t>(segments_.size()), layer);
  }

 private:
  struct Pending {
    std::future<serve::InferenceResult> result;
    int64_t image = 0;
    double due_s = 0.0;
    double due_to_return_ms = 0.0;  ///< due instant -> submit() returned
  };

  void settle(Pending& p, Segment& seg) {
    try {
      const serve::InferenceResult r = p.result.get();
      const int64_t classes = reference_.dim(1);
      const float* want = reference_.data() + p.image * classes;
      if (r.degraded || r.prediction.probs.numel() != classes ||
          std::memcmp(r.prediction.probs.data(), want,
                      static_cast<size_t>(classes) * sizeof(float)) != 0) {
        ++mismatches_;
      }
      // The service clocks total_ms from inside submit(), after admission;
      // adding the whole submit() call to it charges admission too, at the
      // price of counting the enqueue that ends submit() twice (a few us).
      seg.latencies.emplace_back(p.due_s, p.due_to_return_ms + r.total_ms);
    } catch (const std::exception&) {
      ++seg.failed;
    }
  }

  /// Open loop: send each arrival at its due instant, whatever the state of
  /// earlier requests. Latency runs from the due instant, so a late
  /// generator or a stalled service is charged to every request it delays.
  Segment run(serve::InferenceService& service,
              const std::vector<perfbench::Arrival>& schedule) {
    ScopedSpan span(tracer_, "serve.segment");
    Segment seg;
    std::deque<Pending> pending;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (const perfbench::Arrival& a : schedule) {
      while (!pending.empty() &&
             pending.front().result.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        settle(pending.front(), seg);
        pending.pop_front();
      }
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(a.due_s));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      const double lag = ms_between(due, sent);
      seg.lag_ms.push_back(lag);
      ++seg.sent;
      try {
        std::future<serve::InferenceResult> result;
        {
          ScopedSpan s(tracer_, "serve.submit");
          result = service.submit(pool_[static_cast<size_t>(a.image)]);
        }
        pending.push_back({std::move(result), a.image, a.due_s,
                           ms_between(due, Clock::now())});
      } catch (const std::exception&) {
        ++seg.failed;
      }
    }
    for (Pending& p : pending) {
      settle(p, seg);
    }
    return seg;
  }

  std::unique_ptr<serve::InferenceService> start() {
    std::vector<std::unique_ptr<core::InferencePipeline>> replicas;
    for (int64_t i = 0; i < kReplicas; ++i) {
      replicas.push_back(std::make_unique<core::InferencePipeline>(
          bench::replicate_model(exp_), filters::make_lap(32)));
    }
    serve::ServiceConfig config;
    // Deep enough that no light or heavy request is ever shed: an
    // overloaded ladder rung shows as a growing backlog instead.
    config.queue_capacity = 16384;
    config.threat_model = core::ThreatModel::kIII;
    config.admission.expected_height = exp_.config.image_size;
    config.admission.expected_width = exp_.config.image_size;
    config.max_batch = regime_.serve_max_batch;
    return std::make_unique<serve::InferenceService>(std::move(replicas),
                                                     config);
  }

  void stop(serve::InferenceService& service) {
    const serve::ServiceStats stats = service.stats();
    service.shutdown();
    degraded_ += stats.degraded;
    shed_ += stats.shed;
    timed_out_ += stats.timed_out;
    batches_ += stats.batches;
    occupancy_sum_ +=
        stats.mean_batch_occupancy * static_cast<double>(stats.batches);
    plan_.plan_batches += static_cast<uint64_t>(stats.plan_batches);
    plan_.tape_batches += static_cast<uint64_t>(stats.tape_batches);
    plan_.cache_hits += static_cast<uint64_t>(stats.plan_cache_hits);
    plan_.cache_misses += static_cast<uint64_t>(stats.plan_cache_misses);
    // The service reports plan lookups, not compiles: a miss compiles.
    plan_.compiles += static_cast<uint64_t>(stats.plan_cache_misses);
  }

  std::vector<perfbench::Arrival> schedule(double rate, double seconds) {
    return perfbench::make_schedule(
        perfbench::derive_seed(seed_, 100 + segment_++), rate, seconds, kPool);
  }

  const core::Experiment& exp_;
  const Regime& regime_;
  uint64_t seed_;
  Checks& checks_;
  perfbench::Tracer& tracer_;
  std::vector<Tensor> pool_;
  Tensor reference_;  ///< predict_probs_batch of the pool, [kPool, classes]
  uint64_t segment_ = 0;
  PhaseAccount account_;
  std::vector<Segment> segments_;
  std::vector<perfbench::LatencySeries> light_;
  std::vector<perfbench::LatencySeries> heavy_;
  std::vector<double> climbs_;  ///< max_rps of each ladder climb
  int64_t mismatches_ = 0;
  int64_t degraded_ = 0;
  int64_t shed_ = 0;
  int64_t timed_out_ = 0;
  int64_t batches_ = 0;
  double occupancy_sum_ = 0.0;
  plan::PlanStats plan_;
};

// ---- train ------------------------------------------------------------------------------------

/// The train phase: each pass trains the default experiment model from
/// scratch (weights and shuffle from the run seed) for one epoch, then
/// saves, verifies and reloads it.
class Train {
 public:
  Train(const core::Experiment& exp, uint64_t seed, const std::string& work,
        Checks& checks, perfbench::Tracer& tracer)
      : cfg_(exp.config),
        exp_(exp),
        seed_(seed),
        path_(work + "/train_pass.fdml"),
        checks_(checks),
        tracer_(tracer) {}

  void round(double budget_s) {
    account_.begin();
    const auto t0 = Clock::now();
    do {
      pass();
    } while (seconds_since(t0) < budget_s);
    account_.end();
  }

  void finish(Ops& ops, std::vector<Metric>& e2e, std::vector<Metric>& layer) {
    checks_.expect(losses_.size() >= 2, "train: fewer than two passes");
    for (double loss : losses_) {
      checks_.expect(loss == losses_.front(),
                     "train: seeded training is not deterministic across "
                     "passes");
    }
    const data::Dataset& train = exp_.dataset.train;
    ops.attempted += static_cast<int64_t>(losses_.size()) *
                     ((train.size() + cfg_.batch_size - 1) / cfg_.batch_size);
    log_series("train samples/s per pass", rate_);
    e2e.push_back({"train.samples_per_s", perfbench::best_rate(rate_), "1/s"});
    e2e.push_back({"train.top1", exp_.clean_test.top1, "ratio"});
    layer.push_back({"nn.epoch_ms", perfbench::median(epoch_ms_), "ms"});
    account_.report("train", static_cast<int64_t>(losses_.size()), layer);
    std::filesystem::remove(path_);
    std::fprintf(stderr, "[perfbench] train: %zu one-epoch passes\n",
                 losses_.size());
  }

 private:
  void pass() {
    ScopedSpan span(tracer_, "train.pass");
    const data::Dataset& train = exp_.dataset.train;
    auto model = make_model(cfg_, seed_);
    auto epoch_start = Clock::now();
    const auto fit_start = epoch_start;
    double loss = 0.0;
    {
      ScopedSpan s(tracer_, "nn.fit");
      loss = fit_model(*model, cfg_, train, seed_, 1,
                       [&](int64_t, double, double) {
                         const auto now = Clock::now();
                         epoch_ms_.push_back(ms_between(epoch_start, now));
                         epoch_start = now;
                       });
    }
    rate_.push_back(static_cast<double>(train.size()) /
                    seconds_since(fit_start));
    losses_.push_back(loss);
    model->set_training(false);
    {
      ScopedSpan s(tracer_, "nn.checkpoint_save");
      nn::save_checkpoint(*model, path_);
    }
    auto loaded = load_verified(cfg_, path_, tracer_);
    checks_.expect(same_parameters(*model, *loaded),
                   "train: loaded checkpoint differs from the saved model");
  }

  const core::ExperimentConfig& cfg_;
  const core::Experiment& exp_;
  uint64_t seed_;
  std::string path_;
  Checks& checks_;
  perfbench::Tracer& tracer_;
  PhaseAccount account_;
  std::vector<double> rate_;
  std::vector<double> epoch_ms_;
  std::vector<double> losses_;
};

// ---- layer probes (traced runs only) -------------------------------------------------------

/// Median wall time of `fn` over `reps` calls after `warm` untimed ones.
double median_ms(int warm, int reps, const std::function<void()>& fn) {
  for (int i = 0; i < warm; ++i) {
    fn();
  }
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return perfbench::median(ms);
}

Tensor test_batch(const core::Experiment& exp, int64_t n) {
  std::vector<Tensor> images(exp.dataset.test.images.begin(),
                             exp.dataset.test.images.begin() + n);
  return nn::stack_images(images);
}

uint32_t images_crc(const data::Dataset& d) {
  uint32_t crc = 0;
  for (const Tensor& t : d.images) {
    crc = crc32(t.data(), static_cast<size_t>(t.numel()) * sizeof(float), crc);
  }
  return crc;
}

/// data.synth_ms: the data synthesis inside core::make_experiment, timed
/// alone. The check keeps the probe's SynthConfig on make_experiment's.
double synth_probe_ms(const core::Experiment& exp, Checks& checks) {
  const core::ExperimentConfig& cfg = exp.config;
  data::SynthConfig synth;
  synth.image_size = cfg.image_size;
  synth.train_per_class = cfg.train_per_class;
  synth.test_per_class = cfg.test_per_class;
  synth.seed = cfg.seed;
  synth.train_blur_max = cfg.train_blur_max;
  synth.train_noise_max = cfg.train_noise_max;
  synth.noise_std = cfg.test_noise_std;
  data::SynthGtsrb ds;
  const double ms = median_ms(0, 3, [&] { ds = data::make_synthetic_gtsrb(synth); });
  checks.expect(images_crc(ds.train) == images_crc(exp.dataset.train) &&
                    images_crc(ds.test) == images_crc(exp.dataset.test),
                "data.synth probe: its data differ from make_experiment's");
  return ms;
}

void run_layer_probes(const core::Experiment& exp, Checks& checks,
                      std::vector<Metric>& layer) {
  const core::ExperimentConfig& cfg = exp.config;
  layer.push_back({"data.synth_ms", synth_probe_ms(exp, checks), "ms"});
  const core::InferencePipeline lap(exp.model, filters::make_lap(32));
  const auto tm3 = core::ThreatModel::kIII;
  for (int64_t n : {1, 8, 32}) {
    const Tensor batch = test_batch(exp, n);
    layer.push_back({"core.predict_ms.b" + std::to_string(n),
                     median_ms(5, 40, [&] {
                       (void)lap.predict_probs_batch(batch, tm3);
                     }),
                     "ms"});
  }
  const Tensor b8 = test_batch(exp, 8);
  const std::vector<int64_t> targets(8, 14);
  const core::BatchObjective objective =
      attacks::batch_targeted_cross_entropy(targets);
  const double predict_b8 =
      median_ms(5, 40, [&] { (void)lap.predict_probs_batch(b8, tm3); });
  const double grad_b8 = median_ms(
      3, 30, [&] { (void)lap.loss_and_grad_batch(b8, objective, tm3); });
  const double grad_tm1_b8 =
      median_ms(3, 30, [&] {
        (void)lap.loss_and_grad_batch(b8, objective, core::ThreatModel::kI);
      });
  layer.push_back({"core.grad_ms.b8", grad_b8, "ms"});
  layer.push_back({"core.grad_ms.tm1.b8", grad_tm1_b8, "ms"});
  layer.push_back({"core.grad_over_predict.b8", grad_b8 / predict_b8, "ratio"});

  const Tensor b32 = test_batch(exp, 32);
  const Tensor g8 = b8.clone();
  for (const auto& [name, filter] :
       std::vector<std::pair<std::string, filters::FilterPtr>>{
           {"lap32", filters::make_lap(32)},
           {"dct50", filters::make_dct_quant(50)},
           {"squeeze", filters::parse_filter("bits5+median1")}}) {
    layer.push_back({"filters." + name + ".apply_ms.b32",
                     median_ms(3, 30, [&] { (void)filter->apply_batch(b32); }),
                     "ms"});
    layer.push_back({"filters." + name + ".vjp_ms.b8",
                     median_ms(3, 30, [&] { (void)filter->vjp_batch(b8, g8); }),
                     "ms"});
  }

  // Compile cost: a fresh pipeline has an empty plan cache.
  layer.push_back({"plan.compile_ms", median_ms(1, 10, [&] {
                     const core::InferencePipeline fresh(exp.model,
                                                         filters::make_lap(32));
                     (void)fresh.compile_plan(b8.shape(), tm3);
                   }),
                   "ms"});

  // One SGD step on a batch of 16, timed from outside.
  {
    auto model = make_model(cfg, cfg.seed);
    model->set_training(true);
    nn::SGD::Config sgd_config;
    sgd_config.lr = cfg.lr;
    nn::SGD sgd(model->named_parameters(), sgd_config);
    const Tensor b16 = nn::stack_images(std::vector<Tensor>(
        exp.dataset.train.images.begin(), exp.dataset.train.images.begin() + 16));
    const std::vector<int64_t> labels(exp.dataset.train.labels.begin(),
                                      exp.dataset.train.labels.begin() + 16);
    layer.push_back({"nn.train_step_ms.b16", median_ms(3, 30, [&] {
                       autograd::Variable x{b16};
                       autograd::Variable loss =
                           autograd::cross_entropy(model->forward(x), labels);
                       sgd.zero_grad();
                       loss.backward();
                       sgd.step();
                     }),
                     "ms"});
  }

  // Heap allocations of a warm TM-III batch-8 predict (arena + tensor
  // pool), at one thread like the library's own allocation probe.
  {
    const int threads = parallel::num_threads();
    parallel::set_num_threads(1);
    for (int i = 0; i < 3; ++i) {
      (void)lap.predict_probs_batch(b8, tm3);
    }
    const uint64_t before =
        simd::tensor_heap_allocations() + simd::Arena::heap_allocations();
    for (int i = 0; i < 10; ++i) {
      (void)lap.predict_probs_batch(b8, tm3);
    }
    const uint64_t after =
        simd::tensor_heap_allocations() + simd::Arena::heap_allocations();
    parallel::set_num_threads(threads);
    layer.push_back({"simd.heap_allocs.predict_b8",
                     static_cast<double>(after - before) / 10.0, "count"});
  }
}

/// Tracing overhead: evaluate passes alternately untraced and traced;
/// the relative difference of their median times, in percent.
double tracing_overhead_pct(const core::Experiment& exp,
                            perfbench::Tracer& tracer) {
  const auto pipelines = evaluate_pipelines(exp.model);
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < 5; ++i) {
    tracer.set_enabled(false);
    off.push_back(evaluate_pass(pipelines, exp.dataset.test, tracer).seconds);
    tracer.set_enabled(true);
    on.push_back(evaluate_pass(pipelines, exp.dataset.test, tracer).seconds);
  }
  return (perfbench::median(on) / perfbench::median(off) - 1.0) * 100.0;
}

/// Cost of one recorded span (open + close), in nanoseconds.
double span_cost_ns() {
  perfbench::Tracer probe;
  probe.set_enabled(true);
  constexpr int kSpans = 100000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan s(probe, "probe");
  }
  return ms_between(t0, Clock::now()) * 1e6 / kSpans;
}

// ---- main -------------------------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value after " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--model-dir") {
      o.model_dir = value;
    } else if (flag == "--work") {
      o.work = value;
    } else if (flag == "--prepare-model") {
      o.prepare = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return o;
}

int run(const Options& opt) {
  const Regime regime = regime_for(opt.workload);
  if (opt.seconds < 10.0 || opt.model_dir.empty() || opt.work.empty()) {
    throw std::invalid_argument("need --model-dir, --work and --seconds >= 10");
  }
  std::filesystem::create_directories(opt.work);
  // Intra-op threads: half the hardware threads. On a few vCPUs shared with
  // other tenants, a parallel region waits for its slowest thread, so at one
  // thread per vCPU any neighbour's load stalls whole regions (4-vCPU VM:
  // evaluate.images_per_s quartile spread over seeds 0.18 at 4 threads
  // against 0.04 at 2, under similar background load).
  parallel::set_num_threads(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2));
  const core::ExperimentConfig cfg = experiment_config(opt.model_dir);
  perfbench::Tracer tracer;
  tracer.set_enabled(opt.trace);
  Checks checks;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::map<std::string, Ops> ops;

  // Setup, repeated: data, verified model load and the accuracy floor.
  std::vector<double> setup_s;
  core::Experiment exp;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    exp = run_setup(cfg, tracer);
    setup_s.push_back(seconds_since(t0));
  }
  log_series("setup s", setup_s);
  const uint32_t crc = parameter_crc(*exp.model);

  // The measured window is split into rounds, each running every phase
  // for its share, so slow stretches of the machine fall on all phases
  // alike. Every phase runs at least one pass per round, so rounds overrun
  // their share a little; once the window has overrun by a quarter (a
  // heavily loaded machine stretches every pass), no round starts beyond
  // the two the output checks need. The rate ladder climbs every other
  // round, starting with the first, so even a cut window has a climb.
  Craft craft(exp, regime, opt.seed, checks, tracer);
  Evaluate evaluate(exp, checks, tracer);
  Serve serve(exp, regime, opt.seed, checks, tracer);
  Train train(exp, opt.seed, opt.work, checks, tracer);
  const double round_s = opt.seconds / kRounds;
  const auto window_start = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    if (r >= 2 && seconds_since(window_start) >= 1.25 * opt.seconds) {
      break;
    }
    craft.round(0.28 * round_s);
    evaluate.round(0.12 * round_s);
    serve.round(0.30 * round_s);
    if (r % 2 == 0) {
      serve.ladder(0.035 * round_s);
    }
    train.round(0.12 * round_s);
  }
  craft.finish(ops["craft"], e2e, layer);
  evaluate.finish(ops["evaluate"], e2e, layer);
  serve.finish(ops["serve"], e2e, layer);
  train.finish(ops["train"], e2e, layer);
  e2e.push_back({"setup_s", perfbench::median(setup_s), "s"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  if (opt.trace) {
    const std::map<std::string, perfbench::Tracer::Totals> totals =
        tracer.totals();
    auto mean_ms = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_ms / static_cast<double>(it->second.count);
    };
    for (const char* kind : {"lbfgs", "fgsm", "bim"}) {
      for (const char* mode : {"blind", "aware"}) {
        const std::string name =
            std::string("attacks.") + kind + "." + mode;
        layer.push_back({name + ".cohort_ms", mean_ms(name), "ms"});
      }
    }
    layer.push_back({"nn.checkpoint_save_ms", mean_ms("nn.checkpoint_save"),
                     "ms"});
    layer.push_back({"nn.checkpoint_load_ms", mean_ms("nn.checkpoint_load"),
                     "ms"});
    layer.push_back({"serve.submit_us", mean_ms("serve.submit") * 1000.0,
                     "us"});
    std::fprintf(stderr, "[perfbench] spans: name count total_ms self_ms\n");
    for (const auto& [name, t] : totals) {
      std::fprintf(stderr, "  %-28s %8lld %12.3f %12.3f\n", name.c_str(),
                   static_cast<long long>(t.count), t.total_ms, t.self_ms);
    }
    run_layer_probes(exp, checks, layer);
    layer.push_back({"trace.overhead_pct", tracing_overhead_pct(exp, tracer),
                     "%"});
    layer.push_back({"trace.span_ns", span_cost_ns(), "ns"});
  }

  // Provenance and operation accounting, then the result line.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": \"" << opt.workload
       << "\", \"seed\": " << opt.seed << ", \"tier\": \""
       << simd::level_name(simd::active_level())
       << "\", \"threads\": " << parallel::num_threads()
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"plans\": " << (plan::plans_enabled() ? "true" : "false")
       << ", \"model_crc\": \"" << std::hex << crc << std::dec
       << "\", \"clean_top1\": " << json_number(exp.clean_test.top1)
       << ", \"top1_floor\": " << kTop1Floor << "}, \"operations\": {";
  bool first = true;
  for (const auto& [phase, o] : ops) {
    prov << (first ? "" : ", ") << "\"" << phase << "\": {\"attempted\": "
         << o.attempted << ", \"failed\": " << o.failed << "}";
    first = false;
    attempted += o.attempted;
    failed += o.failed;
  }
  prov << "}}";
  std::cout << prov.str() << "\n";

  const std::vector<Metric>& metrics = opt.trace ? layer : e2e;
  for (const Metric& m : metrics) {
    checks.expect(perfbench::valid_metric_name(m.name),
                  "invalid metric name '" + m.name + "'");
  }
  const bool correct = checks.failures.empty() && failed == 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (!opt.prepare.empty()) {
      return prepare_model(opt.prepare);
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
    return 1;
  }
}

