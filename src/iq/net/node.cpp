#include "iq/net/node.hpp"

#include <algorithm>

#include "iq/common/check.hpp"
#include "iq/common/log.hpp"

namespace iq::net {

namespace {

bool id_less(const std::pair<NodeId, Link*>& route, NodeId id) {
  return route.first < id;
}

}  // namespace

void Node::bind(std::uint16_t port, PacketSink* sink) {
  IQ_CHECK(sink != nullptr);
  if (ports_.empty()) {
    port_base_ = port;
  } else if (port < port_base_) {
    ports_.insert(ports_.begin(), port_base_ - port, nullptr);
    port_base_ = port;
  }
  const std::size_t i = port - port_base_;
  if (i >= ports_.size()) ports_.resize(i + 1, nullptr);
  ports_[i] = sink;
}

void Node::unbind(std::uint16_t port) {
  const std::size_t i = static_cast<std::size_t>(port) - port_base_;
  if (i < ports_.size()) ports_[i] = nullptr;
}

void Node::set_route(NodeId dst, Link* link) {
  IQ_CHECK(link != nullptr);
  const NodeId i = dst - id_base_;  // wraps for ids below the base
  if (i < kMaxTableRoutes) {
    if (i >= routes_.size()) routes_.resize(i + 1, nullptr);
    routes_[i] = link;
    return;
  }
  auto it = std::lower_bound(far_routes_.begin(), far_routes_.end(),
                             dst, id_less);
  if (it != far_routes_.end() && it->first == dst) {
    it->second = link;
  } else {
    far_routes_.insert(it, {dst, link});
  }
}

Link* Node::route(NodeId dst) const {
  const NodeId i = dst - id_base_;
  if (i < kMaxTableRoutes) return i < routes_.size() ? routes_[i] : nullptr;
  auto it = std::lower_bound(far_routes_.begin(), far_routes_.end(),
                             dst, id_less);
  return it != far_routes_.end() && it->first == dst ? it->second : nullptr;
}

void Node::send(PacketPtr packet) {
  if (packet->dst.node == id_) {
    deliver(std::move(packet));
    return;
  }
  route_or_drop(std::move(packet));
}

void Node::deliver(PacketPtr packet) {
  if (packet->dst.node != id_) {
    ++forwarded_;
    route_or_drop(std::move(packet));
    return;
  }
  const std::size_t i = static_cast<std::size_t>(packet->dst.port) - port_base_;
  PacketSink* sink = i < ports_.size() ? ports_[i] : nullptr;
  if (sink == nullptr) {
    ++dead_lettered_;
    log_debug("node ", name_, ": no sink on port ", packet->dst.port);
    return;
  }
  ++delivered_local_;
  sink->deliver(std::move(packet));
}

void Node::route_or_drop(PacketPtr packet) {
  Link* link = route(packet->dst.node);
  if (link == nullptr) link = default_route_;
  if (link == nullptr) {
    ++dead_lettered_;
    log_debug("node ", name_, ": no route to ", packet->dst.node);
    return;
  }
  link->deliver(std::move(packet));
}

}  // namespace iq::net
