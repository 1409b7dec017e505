#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::sim {

/// The retained scalar reference simulator: the original one-bit-per-net
/// (`int8_t`) full-level-sweep engine GateSim grew out of, kept verbatim
/// as the golden control arm. Its observable behavior — values, toggle
/// counts, cycles — defines what the 64-lane bit-parallel GateSim must
/// reproduce at lanes=1 (and per lane at any width), and it is the
/// "scalar seed" baseline `bench/perf_gate_sim` measures speedup against.
///
/// Sequential semantics match GateSim: DFF/DFFE/LATCH and SRAM bitcells
/// hold state; `step()` evaluates combinational logic with the current
/// state, then captures the next state on the (implicit, ideal) clock
/// edge.
class ScalarGateSim {
 public:
  ScalarGateSim(const netlist::FlatNetlist& nl, const cell::Library& lib);

  void set_input(std::string_view port, int value);
  /// Sets bus bits base[0..width) from the low bits of `value`.
  void set_input_bus(std::string_view base, std::uint64_t value, int width);

  /// Settles combinational logic only (no state capture).
  void eval();
  /// eval() + capture registers/bitcells, counts one cycle.
  void step();

  [[nodiscard]] int output(std::string_view port) const;
  [[nodiscard]] std::uint64_t output_bus(std::string_view base,
                                         int width) const;
  [[nodiscard]] int net_value(std::uint32_t net) const {
    return values_[net];
  }

  /// Directly loads the state of a sequential/storage element by gate
  /// index (used to preload SRAM weights without driving write cycles).
  void set_state(std::uint32_t gate_index, int value);
  [[nodiscard]] int state(std::uint32_t gate_index) const;
  /// Gate indices of all bitcells, in netlist order.
  [[nodiscard]] const std::vector<std::uint32_t>& bitcell_gates() const {
    return bitcells_;
  }

  // --- activity extraction ---
  void reset_activity();
  [[nodiscard]] const std::vector<std::uint64_t>& net_toggles() const {
    return toggles_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  [[nodiscard]] std::size_t gate_count() const { return kinds_.size(); }

 private:
  void eval_gate(std::uint32_t g);

  const netlist::FlatNetlist& nl_;
  std::vector<const cell::Cell*> cells_;  // per gate
  std::vector<cell::Kind> kinds_;         // per gate
  // Pooled pin nets: inputs in canonical order, then outputs.
  std::vector<std::uint32_t> pin_pool_;
  std::vector<std::uint32_t> gate_pin_start_;  // size gates+1
  std::vector<std::uint8_t> gate_n_in_;

  std::vector<std::vector<std::uint32_t>> levels_;  // combinational order
  std::vector<std::uint32_t> seq_gates_;            // registers + bitcells
  std::vector<std::uint32_t> bitcells_;

  std::vector<std::int8_t> values_;  // per net
  std::vector<std::int8_t> state_;   // per gate (sequential only)
  std::vector<std::uint64_t> toggles_;
  std::uint64_t cycles_ = 0;
};

}  // namespace syndcim::sim
