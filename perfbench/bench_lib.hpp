#pragma once

// The benchmark's own logic, kept free of the fademl library so it can be
// tested on its own (perfbench_test): the seeded input generators, the
// latency statistics and their tail rule, metric-name validation, and the
// span recorder behind the per-layer numbers of a traced run.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// ---- seeded inputs ---------------------------------------------------------

/// splitmix64: a tiny, fully specified generator, so the benchmark's inputs
/// depend only on the seed — never on a library or standard-library
/// distribution that a later change might alter.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }
  /// Uniform in (0, 1): never 0, so -log(u) is finite.
  double unit_open() {
    return (static_cast<double>(next() >> 11) + 0.5) / 9007199254740992.0;
  }

 private:
  uint64_t state_;
};

/// Derive an independent stream for one use of the run seed.
inline uint64_t derive_seed(uint64_t seed, uint64_t salt) {
  SeedStream s(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return s.next();
}

/// One attack pair: a test-set image index and the class to reach.
struct AttackPair {
  int64_t source = 0;
  int64_t target = 0;
};

/// A (source class, target class) attack scenario.
struct ClassPair {
  int64_t source = 0;
  int64_t target = 0;
};

/// The craft cohort's class pairs: `leading` (the paper's payload
/// scenarios) followed by pairs of distinct classes drawn from a fixed
/// stream, `count` in all. The pairs do not depend on the run seed, so the
/// cohort's difficulty stays put from seed to seed; the seed picks the
/// images (see make_cohort).
inline std::vector<ClassPair> cohort_class_pairs(
    const std::vector<ClassPair>& leading, int64_t num_classes,
    int64_t count) {
  std::vector<ClassPair> out(leading.begin(), leading.end());
  SeedStream rng(0x0C0F0A57ull);
  while (static_cast<int64_t>(out.size()) < count) {
    const auto source = static_cast<int64_t>(
        rng.below(static_cast<uint64_t>(num_classes)));
    const auto target = static_cast<int64_t>(
        rng.below(static_cast<uint64_t>(num_classes)));
    const bool seen = std::any_of(out.begin(), out.end(), [&](const ClassPair& p) {
      return p.source == source && p.target == target;
    });
    if (source != target && !seen) {
      out.push_back({source, target});
    }
  }
  out.resize(static_cast<size_t>(count));
  return out;
}

/// One attack pair per class pair: the source is a seeded pick among the
/// test images of the pair's source class in `candidates` (the images the
/// clean model classifies correctly), distinct while that class has
/// unused images. Deterministic in `seed`.
inline std::vector<AttackPair> make_cohort(
    uint64_t seed, const std::vector<ClassPair>& class_pairs,
    const std::vector<int64_t>& candidates,
    const std::vector<int64_t>& labels) {
  SeedStream rng(derive_seed(seed, 1));
  std::map<int64_t, std::vector<int64_t>> unused;
  std::vector<AttackPair> pairs;
  for (const ClassPair& cp : class_pairs) {
    std::vector<int64_t>& pool = unused[cp.source];
    if (pool.empty()) {
      for (int64_t c : candidates) {
        if (labels[static_cast<size_t>(c)] == cp.source) {
          pool.push_back(c);
        }
      }
    }
    if (pool.empty()) {
      throw std::invalid_argument("make_cohort: no correctly classified "
                                  "test image of class " +
                                  std::to_string(cp.source));
    }
    const size_t pick = rng.below(pool.size());
    pairs.push_back({pool[pick], cp.target});
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return pairs;
}

/// One open-loop request: when it is due (seconds from the segment start)
/// and which pool image it sends.
struct Arrival {
  double due_s = 0.0;
  int64_t image = 0;
};

/// Poisson arrivals at `rate` per second over `duration_s`, each naming an
/// image of a pool of `pool_size`. Deterministic in `seed`.
inline std::vector<Arrival> make_schedule(uint64_t seed, double rate,
                                          double duration_s,
                                          int64_t pool_size) {
  if (rate <= 0.0 || duration_s <= 0.0 || pool_size < 1) {
    throw std::invalid_argument("make_schedule: bad rate/duration/pool");
  }
  SeedStream rng(derive_seed(seed, 2));
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.unit_open()) / rate;
    if (t >= duration_s) {
      break;
    }
    out.push_back({t, static_cast<int64_t>(
                          rng.below(static_cast<uint64_t>(pool_size)))});
  }
  return out;
}

// ---- statistics --------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `values`.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    throw std::invalid_argument("percentile of no samples");
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// A run's figure for a rate measured over many passes: the fastest pass.
/// Other tenants of the machine can only slow a pass (stolen CPU time
/// slowed whole stretches of runs by up to 3x), so the best pass estimates
/// what the code does on the machine undisturbed, while the median moved
/// with every such stretch. Passes are spread over the whole run.
inline double best_rate(const std::vector<double>& per_pass) {
  if (per_pass.empty()) {
    throw std::invalid_argument("best_rate of no passes");
  }
  return *std::max_element(per_pass.begin(), per_pass.end());
}

/// The best_rate of a pass made of the same steps every time: `work` per
/// the sum, over steps, of each step's fastest time across passes
/// (`seconds[pass][step]`). A step of a fraction of a second finds a calm
/// stretch of the machine far more often than a whole pass of seconds.
inline double best_composite_rate(
    double work, const std::vector<std::vector<double>>& seconds) {
  if (seconds.empty()) {
    throw std::invalid_argument("best_composite_rate of no passes");
  }
  double total = 0.0;
  for (size_t step = 0; step < seconds.front().size(); ++step) {
    double fastest = seconds.front()[step];
    for (const std::vector<double>& pass : seconds) {
      if (pass.size() != seconds.front().size()) {
        throw std::invalid_argument("best_composite_rate: passes differ in steps");
      }
      fastest = std::min(fastest, pass[step]);
    }
    total += fastest;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("best_composite_rate of no time");
  }
  return work / total;
}

/// How many of `n` samples lie above the nearest-rank p-th percentile.
inline int64_t samples_beyond(int64_t n, double p) {
  const auto rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::clamp<int64_t>(rank, 1, n);
}

/// The tail percentile a sample of size `n` supports: the highest of
/// 50, 90, 99, 99.9, 99.99 with at least 10 samples beyond it, or 0 when
/// even the median has fewer than 10 beyond it.
inline double tail_percentile(int64_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n > 0 && samples_beyond(n, p) >= 10) {
      best = p;
    }
  }
  return best;
}

/// A latency series of one open-loop segment: (due time in seconds from
/// the segment start, latency in ms) per completed request, in due order.
using LatencySeries = std::vector<std::pair<double, double>>;

/// Requests per latency window: enough that every window supports a p99
/// by the tail rule (10 samples beyond it).
constexpr int64_t kWindowSamples = 1100;

/// Latency over segments, each cut into windows of consecutive requests:
/// floor(n / kWindowSamples) windows (at most 8) of equal count. The p50 is
/// the calmest window's median (see best_rate); the p99 is the median of
/// the windows' p99s, so one stalled window moves it by one rank, not to
/// the stall. Throws when a segment is too small for one p99 window.
struct WindowedLatency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t samples = 0;
  int64_t windows = 0;
  int64_t min_window_samples = 0;
  std::vector<double> window_p50s;
  std::vector<double> window_p99s;
};

inline WindowedLatency windowed_latency(
    const std::vector<LatencySeries>& segments) {
  WindowedLatency out;
  out.min_window_samples = INT64_MAX;
  for (const LatencySeries& seg : segments) {
    const auto n = static_cast<int64_t>(seg.size());
    const int64_t windows = std::min<int64_t>(8, n / kWindowSamples);
    if (windows < 1 || tail_percentile(n / windows) < 99.0) {
      throw std::runtime_error("latency segment of " + std::to_string(n) +
                               " samples is too small for a p99 window");
    }
    for (int64_t w = 0; w < windows; ++w) {
      std::vector<double> win;
      for (int64_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
        win.push_back(seg[static_cast<size_t>(i)].second);
      }
      out.min_window_samples =
          std::min(out.min_window_samples, static_cast<int64_t>(win.size()));
      out.window_p50s.push_back(percentile(win, 50.0));
      out.window_p99s.push_back(percentile(win, 99.0));
    }
    out.samples += n;
  }
  out.windows = static_cast<int64_t>(out.window_p99s.size());
  out.p50_ms = *std::min_element(out.window_p50s.begin(),
                                 out.window_p50s.end());
  out.p99_ms = median(out.window_p99s);
  return out;
}

/// The serve rate ladder: rates from `lo` to at most `hi`, each 6 % above
/// the last, rounded to 10 per second.
inline std::vector<double> rate_ladder(double lo, double hi) {
  std::vector<double> out;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= 1.06) {
    out.push_back(std::round(r / 10.0) * 10.0);
  }
  return out;
}

/// How long one rung of the serve rate ladder runs at `rate` per second: at
/// least `min_s`, and long enough to expect 1.25 x kWindowSamples requests,
/// so that the rung's p99 rests on a sample the tail rule allows.
inline double rung_seconds(double rate, double min_s) {
  return std::max(min_s, 1.25 * static_cast<double>(kWindowSamples) / rate);
}

/// Does a rung of the rate ladder hold? It holds when no request failed,
/// its sample supports a p99 by the tail rule, that p99 is within
/// `p99_limit_ms`, and no backlog grows: the median latency of the last
/// quarter of the rung stays within twice the first quarter's plus 1 ms.
inline bool rung_holds(const LatencySeries& seg, int64_t failed,
                       double duration_s, double p99_limit_ms) {
  const auto n = static_cast<int64_t>(seg.size());
  if (failed > 0 || tail_percentile(n) < 99.0) {
    return false;
  }
  std::vector<double> all;
  std::vector<double> head;
  std::vector<double> tail;
  for (const auto& [due, ms] : seg) {
    all.push_back(ms);
    if (due < duration_s / 4) {
      head.push_back(ms);
    } else if (due >= 3 * duration_s / 4) {
      tail.push_back(ms);
    }
  }
  if (head.empty() || tail.empty()) {
    return false;
  }
  return percentile(all, 99.0) <= p99_limit_ms &&
         median(tail) <= 2.0 * median(head) + 1.0;
}

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

// ---- tracing -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory span recorder for the benchmark's own layer boundaries. Spans
/// nest on the recording thread (the benchmark drives the library from one
/// thread); a span's self time is its duration minus its children's.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Totals {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int64_t open(std::string name) {
    const auto id = static_cast<int64_t>(spans_.size());
    spans_.push_back({std::move(name),
                      stack_.empty() ? -1 : stack_.back(), Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }
  void close(int64_t id) {
    spans_[static_cast<size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-name count, total and self time over every closed span.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] += ms_between(s.start, s.end);
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const double ms = ms_between(spans_[i].start, spans_[i].end);
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
    }
    return out;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span; inert (one branch) when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(std::move(name))
                                              : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      tracer_.close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench
