#include "src/runtime/reliability.hpp"

#include <algorithm>
#include <bit>

namespace bgl::rt {
namespace {

// End-to-end checksum over the packet identity the 8 B proto header commits
// to: who sent what to whom, under which sequence and ack state. The DES
// carries no payload bytes, so the checksum doubles as the payload's proxy —
// a Byzantine link "flips payload bits" by XORing this field in flight
// (fabric.cpp), and any nonzero XOR is detected by recomputation.
std::uint32_t header_checksum(std::uint32_t src, std::uint32_t dst,
                              std::uint64_t tag, std::uint32_t payload,
                              std::uint32_t seq, std::uint32_t ack_cum,
                              std::uint32_t ack_bits) {
  std::uint64_t h = 0x42474c6373756dULL;  // "BGLcsum"
  const auto mix = [&h](std::uint64_t v) {
    h += v;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  mix((std::uint64_t{src} << 32) | dst);
  mix(tag);
  mix((std::uint64_t{payload} << 32) | seq);
  mix((std::uint64_t{ack_cum} << 32) | ack_bits);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint32_t stamp_checksum(net::Rank src, const net::InjectDesc& desc) {
  return header_checksum(static_cast<std::uint32_t>(src),
                         static_cast<std::uint32_t>(desc.dst), desc.tag,
                         desc.payload_bytes, desc.seq, desc.ack_cum,
                         desc.ack_bits);
}

std::uint32_t expected_checksum(const net::Packet& packet) {
  return header_checksum(static_cast<std::uint32_t>(packet.src),
                         static_cast<std::uint32_t>(packet.dst), packet.tag,
                         packet.payload_bytes, packet.seq, packet.ack_cum,
                         packet.ack_bits);
}

}  // namespace

ReliableClient::ReliableClient(const net::NetworkConfig& config, net::Client& inner)
    : inner_(&inner),
      rto_(config.faults.retrans_timeout),
      ack_delay_(std::max<Tick>(1, config.faults.retrans_timeout / 8)),
      scan_period_(std::max<Tick>(1, config.faults.retrans_timeout / 4)),
      max_retries_(config.faults.max_retries),
      peers_(static_cast<std::size_t>(config.shape.nodes())),
      nodes_(peers_) {}

bool ReliableClient::routable(Rank from, Rank to, net::RoutingMode mode) const {
  // Until a delayed permanent strike (fail_at > 0) actually lands, the
  // network is healthy and nobody may consult the plan's permanent state:
  // giving up on a pair the plan *will* sever would abandon traffic that is
  // deliverable right now. pair_routable_now encodes exactly that (and on a
  // parallel run answers through the executing slab's private memo).
  return fabric_->pair_routable_now(from, to, mode);
}

ReliableClient::Flow* ReliableClient::find_flow(NodeState& ns, Rank peer) {
  if (ns.flow_of.empty()) return nullptr;
  const std::uint32_t index = ns.flow_of[static_cast<std::size_t>(peer)];
  return index == 0 ? nullptr : &ns.flows[index - 1];
}

ReliableClient::Flow& ReliableClient::flow_for(NodeState& ns, Rank peer) {
  if (ns.flow_of.empty()) {
    ns.flow_of.assign(peers_, 0);
    ns.unacked_peers.assign((peers_ + 63) / 64, 0);
  }
  std::uint32_t& index = ns.flow_of[static_cast<std::size_t>(peer)];
  if (index == 0) {
    ns.flows.emplace_back().peer = peer;
    index = static_cast<std::uint32_t>(ns.flows.size());
  }
  return ns.flows[index - 1];
}

void ReliableClient::track(NodeState& ns, Flow& flow, const net::InjectDesc& desc) {
  auto& ring = flow.unacked;
  const std::uint32_t window = desc.seq - flow.base + 1;
  if (window > ring.size()) {
    // Double, re-homing [base, next_seq) under the wider mask.
    std::vector<std::uint32_t> wider(std::max<std::size_t>(4, ring.size() * 2), kTombstone);
    const std::uint32_t old_mask = static_cast<std::uint32_t>(ring.size()) - 1;
    const std::uint32_t new_mask = static_cast<std::uint32_t>(wider.size()) - 1;
    for (std::uint32_t s = flow.base; s != desc.seq; ++s) {
      wider[s & new_mask] = ring[s & old_mask];
    }
    ring = std::move(wider);
  }
  std::uint32_t slot;
  if (ns.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(ns.pool.size());
    ns.pool.emplace_back();
  } else {
    slot = ns.free_slots.back();
    ns.free_slots.pop_back();
  }
  Pending& pending = ns.pool[slot];
  pending.desc = desc;
  pending.sent_at = fabric_->now();
  pending.tries = 1;
  ring[desc.seq & (ring.size() - 1)] = slot;
  ++ns.unacked;
  const auto peer = static_cast<std::size_t>(flow.peer);
  ns.unacked_peers[peer / 64] |= std::uint64_t{1} << (peer % 64);
}

void ReliableClient::release(NodeState& ns, Flow& flow, std::uint32_t seq) {
  std::uint32_t& slot = flow.unacked[seq & (flow.unacked.size() - 1)];
  if (slot == kTombstone) return;
  ns.free_slots.push_back(slot);
  slot = kTombstone;
  --ns.unacked;
}

void ReliableClient::settle(NodeState& ns, Flow& flow) {
  const std::size_t mask = flow.unacked.size() - 1;
  while (flow.base <= flow.next_seq && flow.unacked[flow.base & mask] == kTombstone) {
    ++flow.base;
  }
  if (flow.base > flow.next_seq) {
    const auto peer = static_cast<std::size_t>(flow.peer);
    ns.unacked_peers[peer / 64] &= ~(std::uint64_t{1} << (peer % 64));
  }
}

bool ReliableClient::next_packet(Rank node, net::InjectDesc& out) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  if (!ns.ready.empty()) {
    out = ns.ready.front();
    ns.ready.pop_front();
    refresh_ack(ns, find_flow(ns, out.dst), out);
    out.checksum = stamp_checksum(node, out);  // ack fields just changed
    return true;
  }

  net::InjectDesc desc;
  if (!inner_->next_packet(node, desc)) return false;
  Flow* flow;
  if (routable(node, desc.dst, desc.mode)) {
    flow = &flow_for(ns, desc.dst);
    desc.seq = ++flow->next_seq;
    track(ns, *flow, desc);
    ++ns.stats.data_sequenced;
    arm_scan(node, ns);
  } else {
    // No live path exists; the fabric consumes the descriptor and counts
    // it unroutable, and tracking it would only retransmit into the void.
    flow = find_flow(ns, desc.dst);
  }
  refresh_ack(ns, flow, desc);
  desc.checksum = stamp_checksum(node, desc);
  out = desc;
  return true;
}

void ReliableClient::refresh_ack(NodeState& ns, Flow* flow, net::InjectDesc& desc) {
  if (flow == nullptr) return;
  desc.ack_cum = flow->cum;
  desc.ack_bits = flow->ooo.empty() ? 0 : static_cast<std::uint32_t>(flow->ooo[0]);
  if (flow->ack_pending) {
    flow->ack_pending = false;
    ++ns.stats.acks_piggybacked;
  }
}

void ReliableClient::request_ack(Rank node, Flow& flow) {
  // Ack (or re-ack — the previous ack may itself have been lost): piggyback
  // on the next reverse data packet, or flush standalone after the delay.
  flow.ack_pending = true;
  if (flow.flush_scheduled) return;
  flow.flush_scheduled = true;
  fabric_->schedule_timer(node, ack_delay_,
                          kCookieFlag | kAckFlushBit |
                              static_cast<std::uint32_t>(flow.peer));
}

void ReliableClient::on_delivery(Rank node, const net::Packet& packet) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  // Integrity first: a packet that fails the end-to-end checksum crossed a
  // Byzantine link, and nothing in it can be trusted — not the payload and
  // not the piggybacked acks. Reject it before any protocol state is
  // touched. Re-advertising the receiver state after the ack delay acts as
  // a NACK (the sender sees the gap and its scan retransmits with backoff);
  // a corrupted standalone ack is simply dropped and a later ack, or the
  // sender's own timeout, covers for it.
  if (packet.checksum != expected_checksum(packet)) {
    ++ns.stats.corrupt_rejected;
    if (packet.seq != 0) request_ack(node, flow_for(ns, packet.src));
    return;
  }
  // Every packet — data, duplicate, or standalone ack — carries fresh ack
  // state for the reverse flow.
  if (packet.seq == 0) {  // standalone ack: header only, no payload
    if (Flow* flow = find_flow(ns, packet.src)) {
      process_ack(ns, *flow, packet.ack_cum, packet.ack_bits);
    }
    return;
  }
  Flow& flow = flow_for(ns, packet.src);
  process_ack(ns, flow, packet.ack_cum, packet.ack_bits);

  const std::uint32_t seq = packet.seq;
  bool duplicate = seq <= flow.cum;
  if (!duplicate) {
    const std::uint32_t bit = seq - flow.cum - 1;
    duplicate = bit / 64 < flow.ooo.size() && ((flow.ooo[bit / 64] >> (bit % 64)) & 1) != 0;
  }
  if (duplicate) {
    ++ns.stats.duplicates_dropped;
  } else {
    accept(flow, seq);
    inner_->on_delivery(node, packet);
  }
  request_ack(node, flow);
}

void ReliableClient::accept(Flow& flow, std::uint32_t seq) {
  auto& ooo = flow.ooo;
  const std::uint32_t bit = seq - flow.cum - 1;
  if (bit == 0 && ooo.empty()) {  // in order with no gap behind it
    ++flow.cum;
    return;
  }
  if (bit / 64 >= ooo.size()) ooo.resize(bit / 64 + 1, 0);
  ooo[bit / 64] |= std::uint64_t{1} << (bit % 64);
  // Advance over the received prefix: count its trailing ones, then shift
  // the bitmap down by that many bits.
  std::size_t full = 0;
  while (full < ooo.size() && ooo[full] == ~std::uint64_t{0}) ++full;
  const std::size_t run =
      full * 64 + (full < ooo.size() ? std::countr_one(ooo[full]) : 0);
  if (run == 0) return;
  flow.cum += static_cast<std::uint32_t>(run);
  const std::size_t words = run / 64;
  const unsigned shift = run % 64;
  const std::size_t n = ooo.size();
  for (std::size_t i = 0; i + words < n; ++i) {
    const std::uint64_t lo = ooo[i + words];
    const std::uint64_t hi = i + words + 1 < n ? ooo[i + words + 1] : 0;
    ooo[i] = shift == 0 ? lo : (lo >> shift) | (hi << (64 - shift));
  }
  ooo.resize(n - words);
  while (!ooo.empty() && ooo.back() == 0) ooo.pop_back();
}

void ReliableClient::process_ack(NodeState& ns, Flow& flow, std::uint32_t cum,
                                 std::uint32_t bits) {
  if (flow.base > flow.next_seq) return;  // nothing unacked
  const std::uint32_t covered = std::min(cum, flow.next_seq);
  for (; flow.base <= covered; ++flow.base) release(ns, flow, flow.base);
  for (; bits != 0; bits &= bits - 1) {
    const std::uint64_t seq = std::uint64_t{cum} + 1 + std::countr_zero(bits);
    if (seq >= flow.base && seq <= flow.next_seq) {
      release(ns, flow, static_cast<std::uint32_t>(seq));
    }
  }
  settle(ns, flow);
}

void ReliableClient::on_timer(Rank node, std::uint64_t cookie) {
  if ((cookie & kCookieFlag) == 0) {
    inner_->on_timer(node, cookie);
    return;
  }
  if (cookie & kAckFlushBit) {
    ack_flush(node, static_cast<Rank>(cookie & 0xffffffffu));
    return;
  }
  scan(node);
}

void ReliableClient::ack_flush(Rank node, Rank sender) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  Flow& flow = flow_for(ns, sender);
  flow.flush_scheduled = false;
  if (!flow.ack_pending) return;  // a data packet carried it meanwhile
  flow.ack_pending = false;
  if (!routable(node, sender, net::RoutingMode::kAdaptive)) return;
  net::InjectDesc ack;
  ack.dst = sender;
  ack.payload_bytes = 0;
  ack.wire_chunks = 1;  // the 8 B proto header rides in one 32 B chunk
  ack.mode = net::RoutingMode::kAdaptive;
  ack.fifo = 0;
  ns.ready.push_back(ack);
  ++ns.stats.acks_standalone;
  fabric_->wake_cpu(node);
}

void ReliableClient::arm_scan(Rank node, NodeState& ns) {
  if (ns.scan_armed) return;
  ns.scan_armed = true;
  fabric_->schedule_timer(node, scan_period_, kCookieFlag);
}

void ReliableClient::scan(Rank node) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  ns.scan_armed = false;
  const Tick now = fabric_->now();
  bool emitted = false;
  // Ascending peer rank, then ascending sequence: the order every
  // retransmission decision (and so every golden) depends on.
  for (std::size_t word = 0; word < ns.unacked_peers.size(); ++word) {
    for (std::uint64_t bits = ns.unacked_peers[word]; bits != 0; bits &= bits - 1) {
      const auto peer = static_cast<Rank>(word * 64 + std::countr_zero(bits));
      Flow& flow = ns.flows[ns.flow_of[static_cast<std::size_t>(peer)] - 1];
      const std::size_t mask = flow.unacked.size() - 1;
      for (std::uint32_t seq = flow.base; seq <= flow.next_seq; ++seq) {
        const std::uint32_t slot = flow.unacked[seq & mask];
        if (slot == kTombstone) continue;
        Pending& pending = ns.pool[slot];
        const int backoff = std::min(pending.tries - 1, 6);
        const Tick patience = rto_ << backoff;
        if (now - pending.sent_at < patience) continue;
        if (pending.tries > max_retries_ ||
            !routable(node, peer, pending.desc.mode)) {
          ++ns.stats.gave_up;
          if (!flow.abandoned) {
            flow.abandoned = true;
            ns.abandoned.push_back(peer);
          }
          release(ns, flow, seq);
          continue;
        }
        ++pending.tries;
        pending.sent_at = now;
        // A retransmission is a new transmission attempt for the fault hash:
        // stamp the attempt counter so the counter-based drop draw re-rolls
        // instead of deterministically re-dropping the copy at the same hop.
        pending.desc.attempt = static_cast<std::uint8_t>(
            std::min(pending.tries - 1, 255));
        ns.ready.push_back(pending.desc);
        ++ns.stats.retransmits;
        emitted = true;
      }
      settle(ns, flow);
    }
  }
  if (emitted) fabric_->wake_cpu(node);
  // Re-arm only while something is unacked, so a finished run quiesces.
  if (ns.unacked > 0) arm_scan(node, ns);
}

}  // namespace bgl::rt
