#include "shard/group_mux.h"

#include <stdexcept>

#include "vsys/wire.h"

namespace dvs::shard {

GroupMux::Port& GroupMux::open(std::uint32_t group,
                               std::vector<ProcessId> pool_replicas) {
  if (group == 0) {
    throw std::logic_error("GroupMux: group 0 is untagged traffic");
  }
  auto [it, inserted] = ports_.try_emplace(
      group, std::make_unique<Port>(*this, group, std::move(pool_replicas)));
  if (!inserted) {
    throw std::logic_error("GroupMux: group already open: " +
                           std::to_string(group));
  }
  return *it->second;
}

void GroupMux::attach_default(ProcessId pool_p,
                              net::Transport::Handler handler) {
  default_handlers_[pool_p] = std::move(handler);
  ensure_attached(pool_p);
}

void GroupMux::close(std::uint32_t group) {
  ports_.erase(group);
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (it->first.first == group) {
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void GroupMux::set_transfer_handler(ProcessId pool_p,
                                    TransferHandler handler) {
  transfer_handlers_[pool_p] = std::move(handler);
  ensure_attached(pool_p);
}

void GroupMux::send_transfer(ProcessId pool_from, ProcessId pool_to,
                             const TransferFrame& frame) {
  base_.send(pool_from, pool_to, encode_transfer(frame));
}

void GroupMux::ensure_attached(ProcessId pool_p) {
  if (attached_.contains(pool_p)) return;
  attached_.insert(pool_p);
  base_.attach(pool_p, [this, pool_p](ProcessId from, const Bytes& payload) {
    dispatch(pool_p, from, payload);
  });
}

void GroupMux::dispatch(ProcessId pool_to, ProcessId pool_from,
                        const Bytes& payload) {
  // Transfer frames (0x48) first: their tag sits outside both the group
  // frame tag (0x47) and the vsys/batch tag ranges, and a joiner must be
  // reachable before any port for the migrating group exists on this node.
  if (looks_like_transfer_frame(payload)) {
    TransferFrame frame;
    try {
      frame = decode_transfer(payload);
    } catch (const DecodeError&) {
      ++transfer_rejects_;
      return;
    }
    auto it = transfer_handlers_.find(pool_to);
    if (it == transfer_handlers_.end()) {
      ++unroutable_;
      return;
    }
    it->second(pool_from, frame);
    return;
  }
  if (!vsys::looks_like_group_frame(payload)) {
    auto it = default_handlers_.find(pool_to);
    if (it != default_handlers_.end()) {
      it->second(pool_from, payload);
    } else {
      ++unroutable_;
    }
    return;
  }
  vsys::GroupFrame frame;
  try {
    frame = vsys::decode_group_frame(payload);
  } catch (const DecodeError&) {
    // A frame truncated below its header is indistinguishable from any
    // other corrupt datagram: drop it here; nothing above could route it.
    ++unroutable_;
    return;
  }
  auto it = handlers_.find({frame.group, pool_to});
  if (it == handlers_.end()) {
    ++unroutable_;
    return;
  }
  it->second(pool_from, frame.payload);
}

void GroupMux::send_framed(std::uint32_t group, ProcessId pool_from,
                           ProcessId pool_to, const Bytes& payload) {
  base_.send(pool_from, pool_to, vsys::encode_group_frame(group, payload));
}

ProcessId GroupMux::Port::to_local(ProcessId pool) const {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == pool) return ProcessId(static_cast<std::uint32_t>(i));
  }
  throw std::logic_error("GroupMux::Port: pool process not a replica: " +
                         pool.to_string());
}

void GroupMux::Port::attach(ProcessId local, Handler handler) {
  const ProcessId pool_p = to_pool(local);
  mux_.handlers_[{group_, pool_p}] =
      [this, handler = std::move(handler)](ProcessId from,
                                           const Bytes& payload) {
        // A correctly tagged frame from a process outside this shard's
        // replica set is as unroutable as an unknown group id.
        for (std::size_t i = 0; i < pool_.size(); ++i) {
          if (pool_[i] == from) {
            handler(ProcessId(static_cast<std::uint32_t>(i)), payload);
            return;
          }
        }
        ++mux_.unroutable_;
      };
  mux_.ensure_attached(pool_p);
}

void GroupMux::Port::send(ProcessId from, ProcessId to,
                          const Bytes& payload) {
  mux_.send_framed(group_, to_pool(from), to_pool(to), payload);
}

}  // namespace dvs::shard
