#include "dse/eval_cache.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "core/binio.hpp"
#include "obs/obs.hpp"

namespace syndcim::dse {

namespace {

/// Exact, locale-independent double rendering (round-trips via strtod).
std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::string canonical_config_key(const rtlgen::MacroConfig& c) {
  std::ostringstream os;
  os << "cfg{r" << c.rows << ",c" << c.cols << ",m" << c.mcr << ",ib";
  for (const int b : c.input_bits) os << '.' << b;
  os << ",wb";
  for (const int b : c.weight_bits) os << '.' << b;
  os << ",fp";
  for (const auto& f : c.fp_formats) os << '.' << f.name();
  os << ",g" << c.fp_guard_bits << ",bc" << static_cast<int>(c.bitcell)
     << ",mx" << static_cast<int>(c.mux)
     << ",tr{" << c.tree.rows << ',' << static_cast<int>(c.tree.style)
     << ',' << hexd(c.tree.fa_fraction) << ',' << c.tree.carry_reorder
     << ',' << c.tree.external_cpa << "}"
     << ",pp{" << c.pipe.reg_after_tree << ',' << c.pipe.retime_tree_cpa
     << "}"
     << ",of{" << c.ofu.input_reg << ',' << c.ofu.pipeline_regs << ','
     << c.ofu.retime_stage1 << "}"
     << ",sp" << c.column_split << "}";
  return os.str();
}

std::string canonical_spec_knobs_key(const core::PerfSpec& s) {
  // Single source of truth: stage artifact keys embed the same string, so
  // the two cache tiers can never disagree about what a "spec knob" is.
  return core::spec_knobs_key(s);
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_config(const rtlgen::MacroConfig& cfg) {
  return fnv1a64(canonical_config_key(cfg));
}

std::uint64_t hash_spec_knobs(const core::PerfSpec& s) {
  return fnv1a64(canonical_spec_knobs_key(s));
}

std::string eval_key(const rtlgen::MacroConfig& cfg,
                     const core::PerfSpec& spec) {
  return canonical_config_key(cfg) + "|" + canonical_spec_knobs_key(spec);
}

std::string eval_store_prefix(const cell::Library& lib) {
  return "eval1|" + lib.fingerprint() + "|";
}

namespace {
constexpr std::uint8_t kEvalOutcomeVersion = 1;
}  // namespace

std::string encode_eval_outcome(const core::EvalOutcome& o) {
  core::BinWriter w;
  w.u8(kEvalOutcomeVersion);
  w.f64(o.ppa.fmax_mhz);
  w.f64(o.ppa.write_fmax_mhz);
  w.f64(o.ppa.power_uw);
  w.f64(o.ppa.area_um2);
  w.f64(o.ppa.energy_per_mac_fj);
  w.i32(o.ppa.latency_cycles);
  w.f64(o.ppa.tops_1b);
  w.f64(o.timing.mac_period_ps);
  w.f64(o.timing.ofu_period_ps);
  w.f64(o.timing.write_period_ps);
  w.b(o.timing.mac_ok);
  w.b(o.timing.ofu_ok);
  w.b(o.timing.write_ok);
  return w.take();
}

core::EvalOutcome decode_eval_outcome(std::string_view payload) {
  core::BinReader r(payload);
  if (r.u8() != kEvalOutcomeVersion) {
    throw core::BinDecodeError("unsupported codec version for eval outcome");
  }
  core::EvalOutcome o;
  o.ppa.fmax_mhz = r.f64();
  o.ppa.write_fmax_mhz = r.f64();
  o.ppa.power_uw = r.f64();
  o.ppa.area_um2 = r.f64();
  o.ppa.energy_per_mac_fj = r.f64();
  o.ppa.latency_cycles = r.i32();
  o.ppa.tops_1b = r.f64();
  o.timing.mac_period_ps = r.f64();
  o.timing.ofu_period_ps = r.f64();
  o.timing.write_period_ps = r.f64();
  o.timing.mac_ok = r.b();
  o.timing.ofu_ok = r.b();
  o.timing.write_ok = r.b();
  r.expect_end();
  return o;
}

core::EvalOutcome EvalCache::get_or_compute(
    const std::string& key,
    const std::function<core::EvalOutcome()>& compute) {
  Shard& sh = shard_for(key);
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    const auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      if (!it->second.ready) {
        // Another thread is computing this exact evaluation right now:
        // wait for its result instead of repeating the work.
        inflight_waits_.fetch_add(1, std::memory_order_relaxed);
        sh.cv.wait(lock, [&] {
          const auto w = sh.map.find(key);
          return w == sh.map.end() || w->second.ready;
        });
        const auto w = sh.map.find(key);
        if (w != sh.map.end() && w->second.ready) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return w->second.outcome;
        }
        // The computing thread failed and erased the entry — fall
        // through to computing it ourselves (outside the lock).
      } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.outcome;
      }
    }
    sh.map[key] = Entry{};  // in-flight marker (ready = false)
  }

  core::EvalOutcome outcome;
  try {
    if (std::optional<core::EvalOutcome> stored = load_stored(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      outcome = *stored;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      {
        OBS_SPAN("dse.eval.miss");
        outcome = compute();
      }
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      miss_eval_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                              std::memory_order_relaxed);
      // Write-through: the outcome is durable before anyone can see it,
      // so there is nothing to flush. A failed put is the store's to
      // count; the in-memory entry is what this run uses either way.
      if (store_ != nullptr) {
        (void)store_->put(kStoreTier, store_prefix_ + key,
                          encode_eval_outcome(outcome));
      }
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      sh.map.erase(key);
    }
    sh.cv.notify_all();
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(sh.mu);
    Entry& e = sh.map[key];
    e.outcome = outcome;
    e.ready = true;
  }
  sh.cv.notify_all();
  return outcome;
}

std::size_t EvalCache::size() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    const std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [k, e] : sh.map) {
      if (e.ready) ++n;
    }
  }
  return n;
}

void EvalCache::attach_blob_store(core::BlobStore* store,
                                  std::string key_prefix) {
  store_ = store;
  store_prefix_ = std::move(key_prefix);
}

std::optional<core::EvalOutcome> EvalCache::load_stored(
    const std::string& key) {
  if (store_ == nullptr) return std::nullopt;
  const std::optional<std::string> payload =
      store_->get(kStoreTier, store_prefix_ + key);
  if (!payload.has_value()) return std::nullopt;
  try {
    core::EvalOutcome o = decode_eval_outcome(*payload);
    loaded_.fetch_add(1, std::memory_order_relaxed);
    return o;
  } catch (const core::BinDecodeError&) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  s.miss_eval_ms =
      static_cast<double>(miss_eval_ns_.load(std::memory_order_relaxed)) /
      1.0e6;
  s.entries = size();
  s.loaded = static_cast<std::size_t>(
      loaded_.load(std::memory_order_relaxed));
  s.rejected = static_cast<std::size_t>(
      rejected_.load(std::memory_order_relaxed));
  return s;
}

}  // namespace syndcim::dse
