#include "netlist/design.hpp"

#include <stdexcept>
#include <string_view>
#include <unordered_set>

namespace syndcim::netlist {

Module& Design::add_module(Module m) {
  const std::string name = m.name();
  auto [it, inserted] = modules_.emplace(name, std::move(m));
  if (!inserted) {
    throw std::invalid_argument("Design::add_module: duplicate module " +
                                name);
  }
  return it->second;
}

const Module& Design::module(std::string_view name) const {
  const auto it = modules_.find(name);
  if (it == modules_.end()) {
    throw std::out_of_range("Design::module: unknown module " +
                            std::string(name));
  }
  return it->second;
}

Module& Design::module(std::string_view name) {
  const auto it = modules_.find(name);
  if (it == modules_.end()) {
    throw std::out_of_range("Design::module: unknown module " +
                            std::string(name));
  }
  return it->second;
}

bool Design::has_module(std::string_view name) const {
  return modules_.contains(name);
}

std::vector<std::string> Design::module_names() const {
  std::vector<std::string> out;
  out.reserve(modules_.size());
  for (const auto& [k, v] : modules_) out.push_back(k);
  return out;
}

namespace {
// Both sets view names owned by the design's modules, which outlive the
// validation pass.
void validate_module(const Design& d, const Module& m,
                     std::unordered_set<std::string_view>& visited,
                     core::DiagEngine& diag) {
  if (!visited.insert(m.name()).second) return;
  std::unordered_set<std::string_view> inst_names;
  inst_names.reserve(m.instances().size());
  for (const Instance& inst : m.instances()) {
    if (!inst_names.insert(inst.name).second) {
      diag.error("NET-DUPINST",
                 m.name() + ": duplicate instance name " + inst.name,
                 inst.name, m.name());
    }
    if (inst.is_cell) continue;
    if (!d.has_module(inst.master)) {
      diag.error("NET-NOMODULE",
                 m.name() + "/" + inst.name + ": unknown submodule " +
                     inst.master,
                 inst.master, m.name());
      continue;
    }
    const Module& sub = d.module(inst.master);
    for (const Conn& c : inst.conns) {
      if (!sub.has_port(c.pin)) {
        diag.error("NET-NOPORT",
                   m.name() + "/" + inst.name + ": no port '" + c.pin +
                       "' on module " + inst.master,
                   c.pin, m.name());
      }
    }
    validate_module(d, sub, visited, diag);
  }
}
}  // namespace

bool validate(const Design& d, const std::string& top,
              core::DiagEngine& diag) {
  const std::size_t before = diag.error_count();
  if (!d.has_module(top)) {
    diag.error("NET-NOTOP", "top module '" + top + "' not found", top);
    return false;
  }
  std::unordered_set<std::string_view> visited;
  validate_module(d, d.module(top), visited, diag);
  return diag.error_count() == before;
}

std::vector<std::string> validate(const Design& d, const std::string& top) {
  core::DiagEngine diag;
  validate(d, top, diag);
  std::vector<std::string> problems;
  problems.reserve(diag.diags().size());
  for (const core::Diagnostic& dg : diag.diags()) {
    problems.push_back(dg.message);
  }
  return problems;
}

}  // namespace syndcim::netlist
