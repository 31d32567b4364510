#include "exp/transport.h"

#include <chrono>

#include "common/error.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"

namespace dolbie::exp {

net::peer_address parse_peer(const std::string& entry) {
  const std::size_t colon = entry.rfind(':');
  DOLBIE_REQUIRE(colon != std::string::npos && colon > 0 &&
                     colon + 1 < entry.size(),
                 "malformed peer '" << entry << "' (expected host:port)");
  const std::string host = entry.substr(0, colon);
  const std::string port_text = entry.substr(colon + 1);
  std::uint64_t port = 0;
  for (char c : port_text) {
    DOLBIE_REQUIRE(c >= '0' && c <= '9',
                   "malformed port in peer '" << entry << "'");
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    DOLBIE_REQUIRE(port <= 65535, "port out of range in peer '" << entry
                                                                << "'");
  }
  DOLBIE_REQUIRE(port > 0, "port 0 in peer '" << entry << "'");
  return {host, static_cast<std::uint16_t>(port)};
}

std::vector<net::peer_address> parse_peer_list(const std::string& list) {
  std::vector<net::peer_address> peers;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string entry =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!entry.empty()) peers.push_back(parse_peer(entry));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return peers;
}

transport_spec transport_from_args(const cli_args& args) {
  transport_spec spec;
  const std::string kind = args.get_string("transport", "memory");
  if (kind == "memory") {
    spec.kind = transport_kind::memory;
    DOLBIE_REQUIRE(!args.has("peers"),
                   "--peers only applies to --transport=tcp");
  } else if (kind == "tcp") {
    spec.kind = transport_kind::tcp;
    spec.peers = parse_peer_list(args.get_string("peers", ""));
  } else {
    DOLBIE_REQUIRE(false, "unknown transport '" << kind
                                                << "' (memory|tcp)");
  }
  const std::string engine = args.get_string("engine", "mw");
  if (engine == "mw") {
    spec.mode = dist::cluster_mode::master_worker;
  } else if (engine == "fd") {
    spec.mode = dist::cluster_mode::fully_distributed;
  } else {
    DOLBIE_REQUIRE(false, "unknown engine '" << engine << "' (mw|fd)");
  }
  spec.receive_timeout_ms = args.get_u64("receive-timeout-ms", 0);
  return spec;
}

std::unique_ptr<core::online_policy> make_transport_policy(
    std::size_t n_workers, const transport_spec& spec,
    obs::metrics_registry* metrics) {
  if (spec.kind == transport_kind::memory) {
    dist::protocol_options popts;
    popts.metrics = metrics;
    // Force the fault plan on with nothing scheduled: every message is
    // still delivered (the iterates equal a disabled plan's bit for bit),
    // but the engine runs over its reliable link and keeps cumulative
    // traffic counters, the accounting the cluster's link stats follow.
    popts.faults.force = true;
    if (spec.mode == dist::cluster_mode::master_worker) {
      return std::make_unique<dist::master_worker_policy>(n_workers, popts);
    }
    return std::make_unique<dist::fully_distributed_policy>(n_workers, popts);
  }
  dist::cluster_options copts;
  copts.mode = spec.mode;
  copts.peers = spec.peers;
  copts.link.receive_timeout =
      std::chrono::milliseconds(spec.receive_timeout_ms);
  copts.metrics = metrics;
  return std::make_unique<dist::cluster_policy>(n_workers, copts);
}

}  // namespace dolbie::exp
