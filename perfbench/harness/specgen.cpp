#include "specgen.hpp"

#include <algorithm>

#include "dse/sweep.hpp"

namespace perfbench {

std::string kv_label(const Kv& kv) {
  std::string s;
  for (const auto& [k, v] : kv) s += (s.empty() ? "" : " ") + k + "=" + v;
  return s;
}

std::vector<GenSpec> compile_specs(std::mt19937_64& rng) {
  static const std::vector<Kv> kSet = {
      {{"mac_mhz", "300"}},  // the README example
      {{"rows", "32"}, {"cols", "32"}, {"mcr", "1"}, {"bitcell", "8T"},
       {"mux", "pg"}, {"mac_mhz", "300"}},
      {{"rows", "32"}, {"cols", "64"}, {"mcr", "2"}, {"bitcell", "6T"},
       {"mux", "tg"}, {"fp", "fp4"}, {"mac_mhz", "350"}},
      {{"rows", "32"}, {"cols", "128"}, {"mcr", "1"}, {"bitcell", "6T"},
       {"mux", "oai22"}, {"fp", "fp8"}, {"mac_mhz", "250"}},
      {{"rows", "64"}, {"cols", "32"}, {"mcr", "2"}, {"bitcell", "6T"},
       {"mux", "oai22"}, {"mac_mhz", "400"}},
      {{"rows", "64"}, {"cols", "64"}, {"mcr", "1"}, {"bitcell", "6T"},
       {"mux", "tg"}, {"fp", "fp8"}, {"mac_mhz", "400"}},
      {{"rows", "64"}, {"cols", "128"}, {"mcr", "1"}, {"bitcell", "8T"},
       {"mux", "pg"}, {"fp", "fp8"}, {"mac_mhz", "300"}},
      {{"rows", "128"}, {"cols", "32"}, {"mcr", "1"}, {"bitcell", "6T"},
       {"mux", "tg"}, {"fp", "fp4"}, {"mac_mhz", "250"}},
      {{"rows", "128"}, {"cols", "64"}, {"mcr", "2"}, {"bitcell", "6T"},
       {"mux", "pg"}, {"mac_mhz", "350"}},
      {{"rows", "128"}, {"cols", "128"}, {"mcr", "1"}, {"bitcell", "8T"},
       {"mux", "oai22"}, {"fp", "fp4"}, {"mac_mhz", "300"}},
  };
  std::vector<GenSpec> out;
  for (const Kv& kv : kSet) out.push_back({kv, kv_label(kv)});
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

std::vector<syndcim::core::PerfSpec> sweep_specs(std::mt19937_64& rng) {
  std::vector<syndcim::core::PerfSpec> specs =
      syndcim::dse::grid_from_kv({{"rows", "64"}, {"cols", "64"}}).expand();
  std::shuffle(specs.begin(), specs.end(), rng);
  return specs;
}

ServeInputs serve_inputs() {
  ServeInputs in;
  for (const char* mhz : {"250", "300", "350"}) {
    for (const char* mcr : {"1", "2"}) {
      Kv kv = {{"rows", "64"}, {"cols", "64"}, {"mcr", mcr},
               {"mac_mhz", mhz}};
      in.pool.push_back({kv, kv_label(kv)});
    }
  }
  in.sweep = {{"rows", "32"},
              {"cols", "32"},
              {"sweep_mac_mhz", "250,350"},
              {"sweep_mcr", "1,2"}};
  return in;
}

GenSpec smoke_spec() {
  const Kv kv = {{"rows", "32"}, {"cols", "32"}, {"mcr", "1"},
                 {"mac_mhz", "300"}};
  return {kv, kv_label(kv)};
}

Kv smoke_grid() {
  return {{"rows", "32"},
          {"cols", "32"},
          {"sweep_mac_mhz", "250,350"},
          {"sweep_mcr", "1"}};
}

}  // namespace perfbench
