#pragma once
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace syndcim::netlist {

/// Index of a net inside one Module (not globally unique).
struct NetId {
  std::uint32_t v = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool valid() const {
    return v != std::numeric_limits<std::uint32_t>::max();
  }
  [[nodiscard]] bool operator==(const NetId&) const = default;
};

enum class PortDir { kIn, kOut };

/// Constant tie value of a net, if any.
enum class NetConst : std::uint8_t { kNone, kZero, kOne };

struct Net {
  std::string name;
  NetConst tie = NetConst::kNone;
};

struct Port {
  std::string name;
  PortDir dir = PortDir::kIn;
  NetId net;
};

/// One pin-to-net connection of an instance.
struct Conn {
  std::string pin;
  NetId net;
};

/// Instance of either a library cell or another module.
struct Instance {
  std::string name;
  std::string master;
  bool is_cell = true;
  std::vector<Conn> conns;
};

/// Bus bit name, e.g. bus_name("sum", 3) == "sum[3]".
[[nodiscard]] std::string bus_name(std::string_view base, int index);

/// A hierarchical netlist module: ports, nets and instances. Modules are
/// value types owned by a Design; NetIds are only meaningful within their
/// module.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  NetId add_net(std::string name);
  std::vector<NetId> add_bus(std::string_view base, int width);

  /// Adds a port and its backing net.
  NetId add_port(std::string name, PortDir dir);
  std::vector<NetId> add_port_bus(std::string_view base, PortDir dir,
                                  int width);

  /// Constant-tie nets, created on first use.
  NetId const0();
  NetId const1();

  std::size_t add_cell(std::string inst_name, std::string cell_name,
                       std::vector<Conn> conns);
  std::size_t add_submodule(std::string inst_name, std::string module_name,
                            std::vector<Conn> conns);

  [[nodiscard]] std::span<const Net> nets() const { return nets_; }
  [[nodiscard]] std::span<const Port> ports() const { return ports_; }
  [[nodiscard]] std::span<const Instance> instances() const {
    return instances_;
  }
  [[nodiscard]] const Net& net(NetId id) const { return nets_.at(id.v); }

  /// Port lookup by name (the first-added port when names repeat);
  /// throws std::out_of_range if absent. Both are O(log ports).
  [[nodiscard]] const Port& port(std::string_view name) const;
  [[nodiscard]] bool has_port(std::string_view name) const {
    return find_port(name) != nullptr;
  }

  /// Number of cell instances (excluding submodule instances).
  [[nodiscard]] std::size_t cell_count() const;

  // --- raw restore (artifact decode only; see netlist/serialize.hpp) ---
  // These rebuild state the constructive API cannot reach: ties on
  // arbitrary nets, ports aliasing an existing net, and the lazily
  // allocated const-net ids.
  void restore_net_tie(NetId id, NetConst tie) { nets_.at(id.v).tie = tie; }
  void restore_port(std::string name, PortDir dir, NetId net) {
    ports_.push_back(Port{std::move(name), dir, net});
    index_last_port();
  }
  void restore_consts(NetId c0, NetId c1) {
    const0_ = c0;
    const1_ = c1;
  }
  [[nodiscard]] NetId const0_id() const { return const0_; }
  [[nodiscard]] NetId const1_id() const { return const1_; }

 private:
  [[nodiscard]] const Port* find_port(std::string_view name) const;
  void index_last_port();

  std::string name_;
  std::vector<Net> nets_;
  std::vector<Port> ports_;
  /// Positions into ports_ sorted by (name, position), so name lookups
  /// binary-search without a second copy of the names and the first-added
  /// of equally named ports sorts first.
  std::vector<std::uint32_t> port_order_;
  std::vector<Instance> instances_;
  NetId const0_{};
  NetId const1_{};
};

}  // namespace syndcim::netlist
