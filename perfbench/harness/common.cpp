#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include <sched.h>

#include "cell/characterize.hpp"
#include "obs/obs.hpp"
#include "tech/tech_node.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

Tail tail_percentile(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  if (v.size() <= min_beyond) return t;
  std::sort(v.begin(), v.end());
  // Nearest-rank: the sample at index i is the 100*(i+1)/n percentile and
  // has n-1-i samples above it.
  const std::size_t i = v.size() - 1 - min_beyond;
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) /
                 static_cast<double>(v.size());
  return t;
}

// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open;  // this thread's open span stack
}  // namespace

SpanRecorder& spans() {
  static SpanRecorder r;
  return r;
}

int SpanRecorder::open(const std::string& name, const std::string& request) {
  Span s;
  s.name = name;
  s.start_ns = syndcim::obs::now_ns();
  s.parent = t_open.empty() ? -1 : t_open.back();
  const std::lock_guard<std::mutex> lock(mu_);
  s.request = request.empty() && s.parent >= 0
                  ? spans_[static_cast<std::size_t>(s.parent)].request
                  : request;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  const std::uint64_t end = syndcim::obs::now_ns();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void SpanRecorder::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  on_ = false;
  spans_.clear();
}

std::vector<Span> SpanRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<Span> s = snapshot();
  f << "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    f << (i ? ",\n " : "\n ") << "{\"id\": " << i << ", \"name\": \""
      << s[i].name << "\", \"start_ns\": " << s[i].start_ns
      << ", \"end_ns\": " << s[i].end_ns << ", \"parent\": " << s[i].parent
      << ", \"request\": \"" << s[i].request << "\"}";
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

Scoped::Scoped(const std::string& name, const std::string& request) {
  if (spans().enabled()) id_ = spans().open(name, request);
}

Scoped::~Scoped() {
  if (id_ >= 0) spans().close(id_);
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& s) {
  std::vector<std::vector<std::size_t>> kids(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].parent >= 0) kids[static_cast<std::size_t>(s[i].parent)].push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const std::size_t k : kids[i]) {
      iv.emplace_back(std::max(s[k].start_ns, s[i].start_ns),
                      std::min(s[k].end_ns, s[i].end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const double dur = static_cast<double>(s[i].end_ns - s[i].start_ns);
    LayerTime& lt = out[s[i].name];
    lt.total_ms += dur / 1e6;
    lt.self_ms += (dur - static_cast<double>(covered)) / 1e6;
    ++lt.count;
  }
  return out;
}

std::mt19937_64 rng_stream(unsigned seed, unsigned id) {
  std::seed_seq seq{seed, id};
  return std::mt19937_64(seq);
}

cell::Library make_library() {
  return syndcim::cell::characterize_default_library(
      syndcim::tech::make_default_40nm());
}

double setup_seconds(const std::function<void()>& prepare, int reps) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  auto one_cpu = [&] {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      prepare();
      t.push_back(ms_since(t0) / 1e3);
    }
    return median(t);
  };
  if (cpus.empty()) return one_cpu();
  std::vector<double> per_cpu;
  for (const int c : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    per_cpu.push_back(one_cpu());
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  return per_cpu.empty() ? one_cpu() : median(per_cpu);
}

}  // namespace perfbench
