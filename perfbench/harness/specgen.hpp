#pragma once
// Workload inputs. Everything a workload feeds the compiler comes from
// here; the compiler only ever sees the key=value specs, parsed by its own
// core::spec_from_kv / dse::grid_from_kv.
//
// The spec sets are fixed and chosen to cover the spec space; `--seed`
// drives what does not change the amount of work: the order specs are
// compiled or swept in, the power-simulation stimulus seed of each
// compile, the MAC-check vectors and the serve request streams. Drawing
// the specs themselves from the seed made one run's work vary up to 5x
// between seeds (a 64x64 sweep takes 1.1 s with one mux/format draw and
// 6.1 s with another), far beyond any bound a timing metric can carry.
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/spec.hpp"

namespace perfbench {

using Kv = std::map<std::string, std::string>;

/// One spec in key=value form (what a CLI user or a serve client sends)
/// and a label for logs.
struct GenSpec {
  Kv kv;
  std::string label;
  [[nodiscard]] syndcim::core::PerfSpec spec() const {
    return syndcim::core::spec_from_kv(kv);
  }
};

[[nodiscard]] std::string kv_label(const Kv& kv);

/// compile_cold: the README example (`syndcim compile mac_mhz=300`: 64x64,
/// MCR 2, INT4/8) and nine specs, one per (rows, cols) cell of
/// {32, 64, 128}^2, that between them use MCR 1 and 2, both bitcells,
/// each mux style and INT, fp4 and fp8 three times each, at 250-400 MHz;
/// in a seeded order.
///
/// Only valid specs are used: bf16/fp16 on 128-row columns and the 8T
/// bitcell at MCR 2 on 64- and 128-row columns exit with "spec
/// infeasible" for every mux at both 250 and 400 MHz, so the set has 8T
/// only at MCR 1 and FP only as fp4/fp8; MCR stays at most 2, which the
/// OAI22 fused mux requires.
[[nodiscard]] std::vector<GenSpec> compile_specs(std::mt19937_64& rng);

/// sweep_cold / sweep_warm_store: `dse::grid_from_kv`'s default 12-point
/// grid (250/350/450 MHz x MCR {1, 2} x {balanced, power}) around the
/// README's 64x64 INT4/8 spec, expanded and put in a seeded order.
[[nodiscard]] std::vector<syndcim::core::PerfSpec> sweep_specs(
    std::mt19937_64& rng);

/// serve_mixed: a pool of six 64x64 INT4/8 compiles that share their
/// subcircuits (MCR {1, 2} x 250/300/350 MHz) and the small sweep every
/// client asks for once (32x32, 250/350 MHz x MCR {1, 2}).
struct ServeInputs {
  std::vector<GenSpec> pool;
  Kv sweep;
};
[[nodiscard]] ServeInputs serve_inputs();

/// Smoke inputs: one 32x32 spec and a 2-spec grid.
[[nodiscard]] GenSpec smoke_spec();
[[nodiscard]] Kv smoke_grid();

}  // namespace perfbench
