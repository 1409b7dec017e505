#pragma once
#include <cstddef>
#include <string>

#include "netlist/flatten.hpp"

namespace syndcim::netlist {

/// Compatibility shim over flatten(). The benchmark harness
/// (perfbench/harness/probes.cpp) still calls stitch_flatten() and reads
/// `.nl`, and that harness changes only together with the benchmark
/// itself; this wrapper goes with that change. Nothing in the compiler or
/// its tools calls it.
struct StitchResult {
  FlatNetlist nl;
};

[[nodiscard]] inline StitchResult stitch_flatten(const Design& d,
                                                 const std::string& top,
                                                 std::nullptr_t = nullptr) {
  return {flatten(d, top)};
}

}  // namespace syndcim::netlist
