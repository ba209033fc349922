/* gallium_runtime.h: the contract between an emitted server program and
 * the host it runs on (paper §4.3.2-§4.3.3, §5).
 *
 * `repro.codegen.cpp.emit` writes the non-offloaded partition against
 * these names and nothing else:
 *   - the packet context and its headers, every field spelled as the `cpp`
 *     column of `repro/net/fields.py` spells it;
 *   - `Key` / `key()`, `UpdateBatch` / `UpdateOp`, and `at()`;
 *   - the six externs of `repro.ir.externs.EXTERN_SPECS`;
 *   - the guarded operators, which compute as `repro.ir.interp._apply_binop`;
 *   - the control plane's three replication steps;
 *   - `serve()`, the polling loop a program's `main` hands its handler to.
 * The externs and the control plane are declared here and defined by the
 * host that links the program; a program compiles without one:
 *     g++ -std=c++17 -I src/repro/codegen/cpp -c program_server.cc
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

/* A DPDK build needs frame parsing and a shim codec in ShimLayout's
 * big-endian wire order; neither is written yet (ROADMAP.md, direction 1). */
#ifdef GALLIUM_DPDK
#error "gallium_runtime.h has no DPDK packet I/O yet: no frame parser, no shim wire codec"
#endif

namespace gallium {

/* ---- packet headers, in host byte order ------------------------------- */

struct EthHeader {
    uint64_t h_dest_u64;   /* 48 bits */
    uint64_t h_source_u64; /* 48 bits */
    uint16_t h_proto;
};

struct IpHeader {
    uint8_t version;
    uint8_t ihl;
    uint8_t tos;
    uint16_t tot_len;
    uint16_t id;
    uint16_t frag_off; /* flags and offset, 16 bits as the IR reads them */
    uint8_t ttl;
    uint8_t protocol;
    uint16_t check;
    uint32_t saddr;
    uint32_t daddr;
};

struct TcpHeader {
    uint16_t source;
    uint16_t dest;
    uint32_t seq;
    uint32_t ack_seq;
    uint8_t doff;
    uint8_t flags;
    uint16_t window;
    uint16_t check;
    uint16_t urg_ptr;
};

struct UdpHeader {
    uint16_t source;
    uint16_t dest;
    uint16_t len;
    uint16_t check;
};

/* The flags byte has no member of its own in Linux's tcphdr. */
inline uint8_t &tcp_flags(TcpHeader *tcp) { return tcp->flags; }

/* One punted packet's headers and the port the switch received it on. */
class PacketContext {
  public:
    uint8_t ingress_port = 0; /* the `meta` region; read-only to a program */

    EthHeader *eth() { return &eth_; }
    IpHeader *ip() { return &ip_; }
    TcpHeader *tcp() { return &tcp_; }
    UdpHeader *udp() { return &udp_; }

  private:
    EthHeader eth_ = {};
    IpHeader ip_ = {};
    TcpHeader tcp_ = {};
    UdpHeader udp_ = {};
};

/* ---- state: keys, vectors, the replication batch ----------------------- */

struct Key {
    std::vector<uint64_t> parts;
    bool operator==(const Key &other) const { return parts == other.parts; }
};

template <class... Parts>
Key key(Parts... parts) { return Key{{static_cast<uint64_t>(parts)...}}; }

/* A vector read out of range is 0, as in the IR. */
inline uint64_t at(const std::vector<uint64_t> &vector, uint64_t index) {
    return index < vector.size() ? vector[index] : 0;
}

/* `StateUpdate.op` of repro.switchsim.control_plane, upper-cased: two of
 * its names are C++ keywords. */
enum class UpdateOp { REGISTER, INSERT, DELETE };

struct StateUpdate {
    const char *target;
    UpdateOp op;
    Key key;
    uint64_t value;
};

class UpdateBatch {
  public:
    void add(const char *target, UpdateOp op, Key key, uint64_t value) {
        updates_.push_back({target, op, std::move(key), value});
    }
    bool empty() const { return updates_.empty(); }

  private:
    std::vector<StateUpdate> updates_;
};

/* The §4.3.3 protocol's three steps: stage the batch in the write-back
 * tables, flip the visibility bit, fold the write-back into the main
 * tables.  A switch driver (P4Runtime writes) defines them. */
class SwitchControlPlane {
  public:
    void stage(const UpdateBatch &batch);
    void flip_visibility();
    void fold_writeback();
};

/* ---- the guarded operators: x / 0 = 0, shift amounts masked to 6 bits,
 * every operand widened to 64 bits first ----------------------------------- */

inline uint64_t mul(uint64_t a, uint64_t b) { return a * b; }
inline uint64_t div(uint64_t a, uint64_t b) { return b ? a / b : 0; }
inline uint64_t mod(uint64_t a, uint64_t b) { return b ? a % b : 0; }
inline uint64_t shl(uint64_t a, uint64_t b) { return a << (b & 63); }
inline uint64_t shr(uint64_t a, uint64_t b) { return a >> (b & 63); }

/* ---- externs (repro.ir.externs.EXTERN_SPECS), defined by the host ------- */

uint32_t payload_len(PacketContext &ctx);
uint8_t payload_byte(PacketContext &ctx, uint32_t index);
uint32_t now_sec(PacketContext &ctx);
uint32_t config_len(PacketContext &ctx, uint32_t section);
uint32_t config_u32(PacketContext &ctx, uint32_t section, uint32_t index);
void log_event(PacketContext &ctx, uint32_t value);

/* ---- the polling loop --------------------------------------------------- */

template <class In, class Out>
using Handler = void (*)(PacketContext &, const In &, Out &);

/* Receive punted frames, run the handler, send each back with its return
 * shim.  Without packet I/O there are no ports to poll. */
template <class In, class Out>
int serve(int, char **, Handler<In, Out>) {
    std::fputs("gallium: built without packet I/O, no ports to poll\n", stderr);
    return 2;
}

}  // namespace gallium

namespace std {
template <>
struct hash<gallium::Key> {
    size_t operator()(const gallium::Key &key) const {
        size_t seed = key.parts.size();
        for (uint64_t part : key.parts)
            seed ^= hash<uint64_t>()(part) + 0x9e3779b97f4a7c15ULL
                    + (seed << 6) + (seed >> 2);
        return seed;
    }
};
}  // namespace std
