#pragma once
// Shared pieces of the benchmark harness: timing, order statistics, the
// in-memory span recorder of traced runs, and the result each workload
// hands back to main().
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cell/library.hpp"

namespace perfbench {

namespace cell = syndcim::cell;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double geomean(const std::vector<double>& v);

/// The highest percentile that still has at least `min_beyond` samples
/// above it (nearest-rank) and its value; zeros when there are too few
/// samples for any.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
[[nodiscard]] Tail tail_percentile(std::vector<double> v,
                                   std::size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer, recorded from the harness's own code.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  std::string request;  ///< spans of one operation share this id
};

/// Keeps every span in memory until the run ends. Disabled recorders cost
/// one branch per span, so the untraced code path is the traced one.
/// Parents are tracked per thread, so concurrent clients nest correctly.
class SpanRecorder {
 public:
  void enable() { on_ = true; }
  /// Disables recording and drops every span (between smoke workloads).
  void reset();
  [[nodiscard]] bool enabled() const { return on_; }
  int open(const std::string& name, const std::string& request);
  void close(int id);
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// Writes the spans as a JSON array to `path`.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanRecorder& spans();

/// RAII span; `request` defaults to the enclosing span's request.
class Scoped {
 public:
  explicit Scoped(const std::string& name, const std::string& request = "");
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int id_ = -1;
};

/// Per-name totals over a span list: summed duration, summed self time
/// (duration minus the union of its children's intervals) and count.
struct LayerTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<Span>& s);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs (32x32 specs, a 2-spec grid, 4 requests): every check
  /// and the traced run in seconds.
  bool smoke = false;
  std::string scratch_dir;  ///< inside the checkout, removed at exit
  int threads = 4;          ///< worker threads / connections cap
};

/// What a workload returns: the number of operations attempted and
/// failed, failure descriptions, and named metrics (value, unit).
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;
  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
};

/// Independent random stream `id` of the run seeded with `seed`: inputs
/// are drawn from stream 0 and run-time draws (MAC-check vectors, request
/// streams) from stream 1, so re-drawing the inputs leaves both intact.
[[nodiscard]] std::mt19937_64 rng_stream(unsigned seed, unsigned id);

/// The default cell library (what every workload compiles against).
[[nodiscard]] cell::Library make_library();

/// Set-up time of `prepare` in seconds. Set-up takes well under a
/// millisecond, and at that scale the core a process lands on decides the
/// figure (one core of a 4-core VM measured 1.7x slower than the others,
/// for every process put on it), so `prepare` runs `reps` times pinned to
/// each core the process may use and the result is the median over cores
/// of each core's median. The process's CPU affinity is restored after.
[[nodiscard]] double setup_seconds(const std::function<void()>& prepare,
                                   int reps = 7);

Result run_compile_cold(const Options& opt);
Result run_sweep_cold(const Options& opt);
Result run_sweep_warm_store(const Options& opt);
Result run_serve_mixed(const Options& opt);

}  // namespace perfbench
