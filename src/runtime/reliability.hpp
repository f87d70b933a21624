// End-to-end reliability for degraded networks.
//
// ReliableClient wraps a strategy's fabric client and adds, per ordered
// (injector, destination) pair:
//   - sequence numbers stamped into the packet's 8 B proto header,
//   - receiver-side duplicate suppression (cumulative counter + an
//     out-of-order bitmap of the sequences above it),
//   - acknowledgements: every data packet piggybacks the current cumulative
//     ack + a 32-bit SACK bitmap for its reverse flow; when no reverse
//     traffic appears within an ack delay, a standalone 1-chunk ack packet
//     is sent,
//   - retransmission from a per-node scan timer with exponential backoff
//     (rto << tries, capped) and a bounded retry budget; abandoned packets
//     are counted and their pairs reported.
//
// The wrapper is only interposed when fault injection is enabled
// (see coll::run_alltoall), so fault-free runs pay zero extra packets and
// remain bit-identical. Indirect strategies (TPS, VMesh) are covered per
// leg: each injection, including a forward from an intermediate, is its own
// reliable flow, so a lost packet is retried by the node that injected it.
//
// State is dense and owned per node (a node's handlers run on exactly one
// slab of a parallel run): one Flow record per touched (node, peer) pair
// holds both directions, found through a per-node peer -> record index;
// unacked packets sit in a per-node Pending pool addressed from a
// seq-indexed ring. The retransmit scan visits peers in ascending rank and
// sequences in ascending order, which is the whole of its determinism.
//
// Timer cookies claim the bit-63 namespace; anything else is forwarded to
// the inner client (VMesh's phase gate uses cookie 1).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/network/fabric.hpp"
#include "src/network/packet_ring.hpp"

namespace bgl::rt {

using net::Rank;
using net::Tick;

struct ReliabilityStats {
  std::uint64_t data_sequenced = 0;      // data packets given a sequence number
  std::uint64_t retransmits = 0;         // re-emissions of unacked packets
  std::uint64_t gave_up = 0;             // packets abandoned after the budget
  std::uint64_t acks_standalone = 0;     // dedicated ack packets injected
  std::uint64_t acks_piggybacked = 0;    // pending acks carried by data
  std::uint64_t duplicates_dropped = 0;  // retransmit copies suppressed
  /// Deliveries rejected by the end-to-end payload checksum (Byzantine
  /// links, FaultConfig::corrupt_prob). Every corruption the fabric injects
  /// must land here — corrupt_rejected == FaultStats::corrupted_payloads on
  /// a drained run, or silent garbage reached the application.
  std::uint64_t corrupt_rejected = 0;
};

class ReliableClient final : public net::Client {
 public:
  /// `inner` must outlive this wrapper. Reliability knobs come from
  /// `config.faults` (retrans_timeout, max_retries).
  ReliableClient(const net::NetworkConfig& config, net::Client& inner);

  /// Call once, after the Fabric is constructed with *this* as its client.
  void attach(net::Fabric& fabric) { fabric_ = &fabric; }

  bool next_packet(Rank node, net::InjectDesc& out) override;
  void on_delivery(Rank node, const net::Packet& packet) override;
  void on_timer(Rank node, std::uint64_t cookie) override;

  /// Aggregated across nodes. All mutable protocol state is sharded per
  /// node, so the accessors sum the shards instead of returning a shared
  /// counter.
  ReliabilityStats stats() const noexcept {
    ReliabilityStats total;
    for (const NodeState& ns : nodes_) {
      const ReliabilityStats& s = ns.stats;
      total.data_sequenced += s.data_sequenced;
      total.retransmits += s.retransmits;
      total.gave_up += s.gave_up;
      total.acks_standalone += s.acks_standalone;
      total.acks_piggybacked += s.acks_piggybacked;
      total.duplicates_dropped += s.duplicates_dropped;
      total.corrupt_rejected += s.corrupt_rejected;
    }
    return total;
  }

  /// Ordered (injector, destination) pairs with at least one abandoned
  /// packet, each listed once; data for these pairs is incomplete despite
  /// being routable. Ordered by injector rank, then by the time of the
  /// pair's first abandonment within the rank.
  std::vector<std::pair<Rank, Rank>> abandoned_pairs() const {
    std::vector<std::pair<Rank, Rank>> out;
    for (Rank n = 0; n < static_cast<Rank>(nodes_.size()); ++n) {
      for (const Rank peer : nodes_[static_cast<std::size_t>(n)].abandoned) {
        out.emplace_back(n, peer);
      }
    }
    return out;
  }

 private:
  // Timer cookie namespace: bit 63 marks ours, bit 62 selects ack flush
  // (low 32 bits = sender being acked) vs the per-node retransmit scan.
  static constexpr std::uint64_t kCookieFlag = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kAckFlushBit = std::uint64_t{1} << 62;
  // Unacked-ring entry of a sequence that is acked or abandoned.
  static constexpr std::uint32_t kTombstone = 0xffffffffu;

  struct Pending {
    net::InjectDesc desc{};  // re-emittable copy, sequence number included
    Tick sent_at = 0;
    int tries = 1;  // sends so far
  };

  // Both directions of one ordered (node, peer) pair: the sender half of
  // node -> peer and the receiver half of peer -> node. Every handler that
  // touches one half touches the other, so one lookup serves both.
  struct Flow {
    Rank peer = 0;
    // Sender half. Sequences start at 1; `unacked` covers [base, next_seq]
    // with slot seq & (size - 1), each holding a pool index or kTombstone.
    // base is the lowest sequence still unacked (next_seq + 1 when none).
    std::uint32_t next_seq = 0;
    std::uint32_t base = 1;
    std::vector<std::uint32_t> unacked;  // power-of-two capacity, or empty
    bool abandoned = false;  // this pair is already in abandoned_pairs()
    // Receiver half: all of 1..cum delivered to the app; bit i of the
    // bitmap (word i / 64) is sequence cum + 1 + i, received out of order.
    // Trailing zero words are trimmed, so empty means "nothing above cum".
    bool ack_pending = false;
    bool flush_scheduled = false;
    std::uint32_t cum = 0;
    std::vector<std::uint64_t> ooo;
  };

  // Everything one node's handlers touch; no other node reads or writes it
  // while the fabric runs.
  struct NodeState {
    std::vector<std::uint32_t> flow_of;   // per peer rank: index + 1 into flows, 0 = none
    std::vector<Flow> flows;              // in first-touch order
    std::vector<std::uint64_t> unacked_peers;  // bit per peer rank: sender half non-empty
    std::vector<Pending> pool;            // unacked packets, addressed by Flow::unacked
    std::vector<std::uint32_t> free_slots;  // recycled pool indices
    net::RingQueue<net::InjectDesc> ready;  // acks + retransmits
    std::uint32_t unacked = 0;            // live Pending records
    bool scan_armed = false;
    ReliabilityStats stats;
    std::vector<Rank> abandoned;          // peers, in first-abandonment order
  };

  bool routable(Rank from, Rank to, net::RoutingMode mode) const;
  /// The record for (node, peer), or nullptr when the pair was never touched.
  static Flow* find_flow(NodeState& ns, Rank peer);
  /// The record for (node, peer), allocated on first touch.
  Flow& flow_for(NodeState& ns, Rank peer);
  /// Files a copy of desc (already sequenced) as unacked, doubling the
  /// flow's ring when the window outgrows it.
  void track(NodeState& ns, Flow& flow, const net::InjectDesc& desc);
  /// Frees seq's pool record if it is still unacked.
  static void release(NodeState& ns, Flow& flow, std::uint32_t seq);
  /// Moves base past acked seqs and clears the peer's scan bit when drained.
  static void settle(NodeState& ns, Flow& flow);
  /// Marks seq (> cum) received and advances cum over the in-order prefix.
  static void accept(Flow& flow, std::uint32_t seq);
  void request_ack(Rank node, Flow& flow);
  void arm_scan(Rank node, NodeState& ns);
  void scan(Rank node);
  void ack_flush(Rank node, Rank sender);
  static void process_ack(NodeState& ns, Flow& flow, std::uint32_t cum,
                          std::uint32_t bits);
  /// Stamps the receiver state of flow (peer -> node) into the outgoing
  /// descriptor's ack fields; an untouched pair (`flow` null) leaves them.
  static void refresh_ack(NodeState& ns, Flow* flow, net::InjectDesc& desc);

  net::Client* inner_;
  net::Fabric* fabric_ = nullptr;
  Tick rto_;
  Tick ack_delay_;
  Tick scan_period_;
  int max_retries_;
  std::size_t peers_;  // nodes in the shape: the per-node index width

  std::vector<NodeState> nodes_;
};

}  // namespace bgl::rt
