#pragma once
// Node: a host or router. Hosts bind local ports to sinks (sockets); routers
// forward by destination node id through a static routing table. The same
// class serves both roles — a host with routes forwards, a router with bound
// ports delivers locally — mirroring how Emulab end hosts and delay nodes
// are all just machines.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "iq/net/link.hpp"
#include "iq/net/packet.hpp"

namespace iq::net {

class Node final : public PacketSink {
 public:
  /// `id_base` is the first node id of the owning Network; routes to ids
  /// from there on are looked up by index.
  Node(NodeId id, std::string name, NodeId id_base)
      : id_(id), name_(std::move(name)), id_base_(id_base) {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Attach a local sink to a port. Overwrites any existing binding.
  void bind(std::uint16_t port, PacketSink* sink);
  void unbind(std::uint16_t port);

  /// Set the outgoing link used to reach `dst`.
  void set_route(NodeId dst, Link* link);
  Link* route(NodeId dst) const;

  /// Fallback used when no per-destination route matches — the "default
  /// gateway". Lets a gateway node reach destinations outside its own
  /// Network (e.g. another shard's groups, via a portal link) without
  /// enumerating every remote node id.
  void set_default_route(Link* link) { default_route_ = link; }
  Link* default_route() const { return default_route_; }

  /// Inject a locally-originated packet (from a socket on this node).
  void send(PacketPtr packet);

  /// PacketSink: a packet arrived from a link.
  void deliver(PacketPtr packet) override;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t delivered_local() const { return delivered_local_; }
  std::uint64_t dead_lettered() const { return dead_lettered_; }

 private:
  void route_or_drop(PacketPtr packet);

  /// Routes to ids this far past id_base_ or more (another shard's nodes,
  /// reached through a portal) go to far_routes_ instead of the table.
  static constexpr NodeId kMaxTableRoutes = 1u << 16;

  NodeId id_;
  std::string name_;
  NodeId id_base_;
  /// Bound sinks by port − port_base_ (nullptr: unbound). Hosts bind a
  /// handful of nearby ports, so the span stays small.
  std::vector<PacketSink*> ports_;
  std::uint16_t port_base_ = 0;
  /// Next hop by dst − id_base_ (nullptr: no route).
  std::vector<Link*> routes_;
  /// Next hop for ids outside the table, sorted by id.
  std::vector<std::pair<NodeId, Link*>> far_routes_;
  Link* default_route_ = nullptr;
  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_local_ = 0;
  std::uint64_t dead_lettered_ = 0;
};

}  // namespace iq::net
