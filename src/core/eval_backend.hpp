#pragma once
#include "core/scl.hpp"

namespace syndcim::core {

/// Everything the searcher needs to know about one (configuration, spec)
/// pair: the PPA estimate and the per-path timing classification. Bundled
/// so an evaluation backend can produce (and a cache can memoize) both
/// from a single slice characterization.
struct EvalOutcome {
  PpaEstimate ppa;
  SubcircuitLibrary::PathStatus timing;
};

/// Injectable evaluation hook of `MsoSearcher`. The searcher only ever
/// asks one question — "what are the PPA and path timings of `cfg` under
/// `spec`?" — so wrapping this interface is enough to make evaluation
/// cached, remote, logged or mocked without the searcher noticing.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;
  virtual EvalOutcome evaluate(const rtlgen::MacroConfig& cfg,
                               const PerfSpec& spec) = 0;
};

/// Default backend: forwards to the SubcircuitLibrary. It holds no state
/// of its own, so concurrent searchers (the DSE sweep pool) share one.
class SclEvalBackend final : public EvalBackend {
 public:
  explicit SclEvalBackend(SubcircuitLibrary& scl) : scl_(scl) {}
  EvalOutcome evaluate(const rtlgen::MacroConfig& cfg,
                       const PerfSpec& spec) override {
    EvalOutcome out;
    out.ppa = scl_.evaluate(cfg, spec);
    out.timing = scl_.timing_status(cfg, spec);
    return out;
  }

 private:
  SubcircuitLibrary& scl_;
};

}  // namespace syndcim::core
