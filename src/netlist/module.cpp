#include "netlist/module.hpp"

#include <algorithm>
#include <stdexcept>

namespace syndcim::netlist {

std::string bus_name(std::string_view base, int index) {
  return std::string(base) + "[" + std::to_string(index) + "]";
}

NetId Module::add_net(std::string name) {
  nets_.push_back(Net{std::move(name), NetConst::kNone});
  return NetId{static_cast<std::uint32_t>(nets_.size() - 1)};
}

std::vector<NetId> Module::add_bus(std::string_view base, int width) {
  std::vector<NetId> out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) out.push_back(add_net(bus_name(base, i)));
  return out;
}

NetId Module::add_port(std::string name, PortDir dir) {
  const NetId id = add_net(name);
  ports_.push_back(Port{std::move(name), dir, id});
  index_last_port();
  return id;
}

std::vector<NetId> Module::add_port_bus(std::string_view base, PortDir dir,
                                        int width) {
  std::vector<NetId> out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    out.push_back(add_port(bus_name(base, i), dir));
  }
  return out;
}

NetId Module::const0() {
  if (!const0_.valid()) {
    const0_ = add_net("const0");
    nets_[const0_.v].tie = NetConst::kZero;
  }
  return const0_;
}

NetId Module::const1() {
  if (!const1_.valid()) {
    const1_ = add_net("const1");
    nets_[const1_.v].tie = NetConst::kOne;
  }
  return const1_;
}

std::size_t Module::add_cell(std::string inst_name, std::string cell_name,
                             std::vector<Conn> conns) {
  for (const Conn& c : conns) {
    if (!c.net.valid() || c.net.v >= nets_.size()) {
      throw std::invalid_argument("Module::add_cell: invalid net on pin " +
                                  c.pin + " of " + inst_name);
    }
  }
  instances_.push_back(
      Instance{std::move(inst_name), std::move(cell_name), true,
               std::move(conns)});
  return instances_.size() - 1;
}

std::size_t Module::add_submodule(std::string inst_name,
                                  std::string module_name,
                                  std::vector<Conn> conns) {
  for (const Conn& c : conns) {
    if (!c.net.valid() || c.net.v >= nets_.size()) {
      throw std::invalid_argument("Module::add_submodule: invalid net on " +
                                  inst_name + "." + c.pin);
    }
  }
  instances_.push_back(Instance{std::move(inst_name), std::move(module_name),
                                false, std::move(conns)});
  return instances_.size() - 1;
}

void Module::index_last_port() {
  const auto pos = static_cast<std::uint32_t>(ports_.size() - 1);
  const std::string& name = ports_[pos].name;
  // After every equal name: positions within one name stay ascending.
  const auto it = std::upper_bound(
      port_order_.begin(), port_order_.end(), name,
      [&](const std::string& n, std::uint32_t i) {
        return n < ports_[i].name;
      });
  if (it != port_order_.begin() && ports_[*(it - 1)].name == name) {
    repeated_port_names_ = true;
  }
  port_order_.insert(it, pos);
}

const Port* Module::find_port(std::string_view name, std::size_t hint) const {
  if (hint < ports_.size() && !repeated_port_names_ &&
      ports_[hint].name == name) {
    return &ports_[hint];
  }
  const auto it = std::lower_bound(
      port_order_.begin(), port_order_.end(), name,
      [&](std::uint32_t i, std::string_view n) { return ports_[i].name < n; });
  if (it == port_order_.end() || ports_[*it].name != name) return nullptr;
  return &ports_[*it];
}

const Port& Module::port(std::string_view name, std::size_t hint) const {
  if (const Port* p = find_port(name, hint)) return *p;
  throw std::out_of_range("Module::port: no port '" + std::string(name) +
                          "' in module " + name_);
}

std::size_t Module::cell_count() const {
  std::size_t n = 0;
  for (const Instance& i : instances_) n += i.is_cell ? 1 : 0;
  return n;
}

}  // namespace syndcim::netlist
