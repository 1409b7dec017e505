#include "netlist/flatten.hpp"

#include <span>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"

namespace syndcim::netlist {

namespace {

constexpr std::uint32_t kUnset = UINT32_MAX;

struct Interner {
  std::unordered_map<std::string, std::uint32_t> map;
};

std::uint32_t intern(Interner& in, const std::string& name,
                     auto&& make) {
  const auto it = in.map.find(name);
  if (it != in.map.end()) return it->second;
  const std::uint32_t id = make(name);
  in.map.emplace(name, id);
  return id;
}

/// The by-name lookups of one module body, resolved once per flatten()
/// call: per instance the interned master id (cells) or the submodule
/// (submodule instances), and per connection, in instance order, the
/// interned pin id (cells) or the submodule's port net. Filled during the
/// module's first expansion in expansion order, so masters and pins are
/// interned in first-use order exactly as an unmemoized walk would.
struct ModuleRefs {
  std::vector<std::uint32_t> masters;
  std::vector<const Module*> subs;
  std::vector<std::uint32_t> pins;
  bool complete = false;
};

struct FlattenCtx {
  const Design& design;
  FlatNetlist& out;
  Interner masters;
  Interner pins;
  Interner groups;
  std::unordered_map<const Module*, ModuleRefs> refs;
  std::uint32_t shared_const0 = kUnset;
  std::uint32_t shared_const1 = kUnset;
};

/// Recursively expands `m`. `local2flat` maps m's local nets to flat nets
/// (kUnset = not yet allocated); the parent presets the port nets, every
/// other local net gets a fresh flat id on first use. The top module
/// (`top`) names its nets unprefixed and tags each depth-1 submodule
/// instance with its own group; below it, nets are named
/// "<group>.<local name>" and every gate inherits `group`.
void expand(FlattenCtx& ctx, const Module& m,
            std::vector<std::uint32_t> local2flat, std::uint32_t group,
            bool top) {
  ModuleRefs& refs = ctx.refs[&m];
  const bool fill = !refs.complete;
  // Groups are only interned while expanding the top, so below it the
  // prefix reference stays valid for the whole expansion.
  const std::string* prefix = top ? nullptr : &ctx.out.group_names()[group];

  auto flat_net = [&](NetId local) -> std::uint32_t {
    std::uint32_t& slot = local2flat[local.v];
    if (slot != kUnset) return slot;
    const Net& net = m.net(local);
    // Share one flat net per constant value design-wide.
    if (net.tie == NetConst::kZero) {
      if (ctx.shared_const0 == kUnset) {
        ctx.shared_const0 = ctx.out.new_net(net.tie, "const0");
      }
      slot = ctx.shared_const0;
    } else if (net.tie == NetConst::kOne) {
      if (ctx.shared_const1 == kUnset) {
        ctx.shared_const1 = ctx.out.new_net(net.tie, "const1");
      }
      slot = ctx.shared_const1;
    } else if (prefix == nullptr) {
      slot = ctx.out.new_net(net.tie, net.name);
    } else {
      slot = ctx.out.new_net(net.tie, *prefix, net.name);
    }
    return slot;
  };

  const std::span<const Instance> insts = m.instances();
  std::size_t k = 0;  // connection cursor into refs.pins
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const Instance& inst = insts[i];
    if (fill) {
      if (inst.is_cell) {
        refs.masters.push_back(
            intern(ctx.masters, inst.master, [&](const std::string& n) {
              return ctx.out.intern_master(n);
            }));
        refs.subs.push_back(nullptr);
      } else {
        refs.masters.push_back(kUnset);
        refs.subs.push_back(&ctx.design.module(inst.master));
      }
    }
    if (inst.is_cell) {
      ctx.out.add_gate(refs.masters[i], group);
      for (const Conn& c : inst.conns) {
        if (fill) {
          refs.pins.push_back(intern(ctx.pins, c.pin,
                                     [&](const std::string& n) {
                                       return ctx.out.intern_pin(n);
                                     }));
        }
        const std::uint32_t pin = refs.pins[k++];
        ctx.out.add_pin(pin, flat_net(c.net));
      }
      continue;
    }
    const std::uint32_t sub_group =
        top ? intern(ctx.groups, inst.name,
                     [&](const std::string& n) {
                       return ctx.out.intern_group(n);
                     })
            : group;
    const Module& sub = *refs.subs[i];
    // The submodule's local port nets, bound to flat nets chosen here; the
    // first connection to a port net wins.
    std::vector<std::uint32_t> sub_map(sub.nets().size(), kUnset);
    for (std::size_t ci = 0; ci < inst.conns.size(); ++ci) {
      const Conn& c = inst.conns[ci];
      if (fill) refs.pins.push_back(sub.port(c.pin, ci).net.v);
      const std::uint32_t port_net = refs.pins[k++];
      const std::uint32_t flat = flat_net(c.net);
      if (sub_map[port_net] == kUnset) sub_map[port_net] = flat;
    }
    for (const Port& p : sub.ports()) {
      if (sub_map[p.net.v] != kUnset) continue;
      if (p.dir == PortDir::kIn) {
        throw std::invalid_argument(
            "flatten: unconnected input port " + p.name + " on instance " +
            inst.name + (top ? std::string() : " of " + sub.name()));
      }
      sub_map[p.net.v] = ctx.out.new_net(NetConst::kNone,
                                         inst.name + "." + p.name + ".nc");
    }
    expand(ctx, sub, std::move(sub_map), sub_group, false);
  }
  refs.complete = true;
}

}  // namespace

std::uint32_t FlatNetlist::intern_master(const std::string& name) {
  master_names_.push_back(name);
  return static_cast<std::uint32_t>(master_names_.size() - 1);
}
std::uint32_t FlatNetlist::intern_pin(const std::string& name) {
  pin_names_.push_back(name);
  return static_cast<std::uint32_t>(pin_names_.size() - 1);
}
std::uint32_t FlatNetlist::intern_group(const std::string& name) {
  group_names_.push_back(name);
  return static_cast<std::uint32_t>(group_names_.size() - 1);
}
std::uint32_t FlatNetlist::new_net(NetConst tie, std::string_view name) {
  net_consts_.push_back(tie);
  name_chars_.append(name);
  name_end_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
  return static_cast<std::uint32_t>(net_consts_.size() - 1);
}

std::uint32_t FlatNetlist::new_net(NetConst tie, std::string_view prefix,
                                   std::string_view name) {
  net_consts_.push_back(tie);
  name_chars_.append(prefix).append(1, '.').append(name);
  name_end_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
  return static_cast<std::uint32_t>(net_consts_.size() - 1);
}

void FlatNetlist::reserve(std::size_t gates, std::size_t pins) {
  gates_.reserve(gates);
  pin_begin_.reserve(gates + 1);
  pins_.reserve(pins);
}

std::uint32_t FlatNetlist::input_net(std::string_view name) const {
  for (const PrimaryIo& io : primary_inputs_) {
    if (io.name == name) return io.net;
  }
  throw std::out_of_range("FlatNetlist::input_net: no input " +
                          std::string(name));
}

std::uint32_t FlatNetlist::output_net(std::string_view name) const {
  for (const PrimaryIo& io : primary_outputs_) {
    if (io.name == name) return io.net;
  }
  throw std::out_of_range("FlatNetlist::output_net: no output " +
                          std::string(name));
}

FlatNetlist flatten(const Design& d, const std::string& top) {
  OBS_SPAN("netlist.flatten");
  const std::vector<std::string> problems = validate(d, top);
  if (!problems.empty()) {
    throw std::invalid_argument("flatten: design invalid: " + problems[0] +
                                (problems.size() > 1 ? " (+more)" : ""));
  }
  FlatNetlist out;
  FlattenCtx ctx{d, out, {}, {}, {}, {}};
  const Module& t = d.module(top);

  // Every top port becomes a primary I/O net; ports aliasing one local
  // net all bind it to the first port's flat net.
  std::vector<std::uint32_t> top_map(t.nets().size(), kUnset);
  for (const Port& p : t.ports()) {
    const std::uint32_t net = out.new_net(t.net(p.net).tie, p.name);
    if (top_map[p.net.v] == kUnset) top_map[p.net.v] = net;
    if (p.dir == PortDir::kIn) {
      out.add_primary_input(p.name, net);
    } else {
      out.add_primary_output(p.name, net);
    }
  }

  // Group 0 = gates directly in the top module; depth-1 submodule instances
  // each get their own group for path-group classification and placement.
  const std::uint32_t top_group = out.intern_group(top);
  ctx.groups.map.emplace(top, top_group);
  expand(ctx, t, std::move(top_map), top_group, /*top=*/true);
  return out;
}

}  // namespace syndcim::netlist
