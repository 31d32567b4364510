#include "dist/engine.h"

#include <type_traits>

#include "common/error.h"
#include "common/snapshot.h"
#include "dist/round_timing.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace dolbie::dist {
namespace {

// MW runs a star around the master (Alg. 1 only ever uses the
// worker<->master links, so channel storage is O(n) — what keeps the flat
// engine feasible at N = 10^5); FD needs every pair. Fault rolls key on
// (from, to), never on storage layout.
template <class Realization>
net::network make_net(std::size_t n) {
  if constexpr (Realization::hub) {
    return net::network(n + 1, static_cast<net::node_id>(n));
  } else {
    return net::network(n);
  }
}

template <class Timing>
constexpr snapshot_kind kind_of(bool hub) {
  constexpr bool sync = std::is_same_v<Timing, null_timing>;
  if (hub) {
    return sync ? snapshot_kind::master_worker
                : snapshot_kind::async_master_worker;
  }
  return sync ? snapshot_kind::fully_distributed
              : snapshot_kind::async_fully_distributed;
}

void save(snapshot_writer& w, const mw_realization& r) { w.f64(r.alpha); }
void load(snapshot_reader& r, mw_realization& out) { out.alpha = r.f64(); }
void save(snapshot_writer& w, const fd_realization& r) {
  for (const double v : r.alpha_bar) w.f64(v);
}
void load(snapshot_reader& r, fd_realization& out) {
  for (double& v : out.alpha_bar) v = r.f64();
}

}  // namespace

template <class R, class T>
engine<R, T>::engine(std::size_t n_workers, protocol_options options,
                     const T& timing)
    // The async engines mirror only the shared dist.*/net.* fault counters.
    : core_(n_workers, options,
            std::is_same_v<T, null_timing> ? R::category : "",
            R::alpha_gauge, options.faults.enabled()),
      net_(make_net<R>(n_workers)),
      timing_(timing) {
  const protocol_options& o = core_.options();
  net_.attach_tracer(o.tracer, o.trace_lane);
  if (o.faults.enabled()) {
    net_.attach_faults(o.faults);
    rel_ = std::make_unique<net::reliable_link>(
        net_, net::reliable_options{o.retry_budget});
    rel_->attach_tracer(o.tracer, o.trace_lane);
  }
}

template <class R, class T>
void engine<R, T>::reset() {
  core_.reset();
  net_.reset_traffic();
  last_traffic_ = {};
  if (rel_ != nullptr) rel_->reset();
}

template <class R, class T>
void engine<R, T>::play(const core::round_feedback& feedback) {
  DOLBIE_REQUIRE(feedback.costs != nullptr, "feedback carries no costs");
  play(*feedback.costs, feedback.local_costs);
}

template <class R, class T>
degraded_outcome engine<R, T>::play(const cost::cost_view& costs,
                                    std::span<const double> locals) {
  const auto deliver = [&](std::uint64_t round, auto&& machine) {
    if (rel_ == nullptr) net_.reset_traffic();
    net_.set_round(round);
    const net::traffic_totals start = net_.total_traffic();
    const degraded_outcome out =
        net::with_delivery(net_, rel_.get(), machine);
    const net::traffic_totals totals = net_.total_traffic();
    last_traffic_ = {totals.messages_sent - start.messages_sent,
                     totals.bytes_sent - start.bytes_sent};
    return out;
  };
  const auto annotate = [&](obs::span& round_span) {
    round_span.arg("messages",
                   static_cast<std::uint64_t>(last_traffic_.messages_sent));
  };
  return core_.play(costs, locals, timing_,
                    rel_ != nullptr ? &rel_->stats() : nullptr, deliver,
                    annotate);
}

template <class R, class T>
std::vector<std::uint8_t> engine<R, T>::snapshot() const {
  snapshot_writer w;
  write_snapshot_header(w, kind_of<T>(R::hub), core_.n_);
  save(w, core_.r_);
  w.u64(core_.round_);
  for (const double v : core_.x_) w.f64(v);
  w.u64(last_traffic_.messages_sent);
  w.u64(last_traffic_.bytes_sent);
  net_.snapshot_to(w);
  const bool faulty = rel_ != nullptr;
  w.u8(faulty ? 1 : 0);
  if (faulty) {
    for (const std::uint8_t v : core_.flags_.removed) w.u8(v);
    snapshot_report(w, core_.report_);
    snapshot_reliable_stats(w, core_.mirrored_);
    rel_->snapshot_to(w);
  }
  return w.take();
}

template <class R, class T>
void engine<R, T>::restore(const std::vector<std::uint8_t>& bytes) {
  reset();
  try {
    snapshot_reader r(bytes);
    read_snapshot_header(r, kind_of<T>(R::hub), core_.n_);
    load(r, core_.r_);
    core_.round_ = r.u64();
    for (double& v : core_.x_) v = r.f64();
    last_traffic_.messages_sent = static_cast<std::size_t>(r.u64());
    last_traffic_.bytes_sent = static_cast<std::size_t>(r.u64());
    net_.restore_from(r);
    const std::uint8_t faulty = r.u8();
    DOLBIE_REQUIRE((faulty != 0) == (rel_ != nullptr),
                   "snapshot fault-path flag does not match this engine");
    if (rel_ != nullptr) {
      for (std::uint8_t& v : core_.flags_.removed) {
        v = r.u8();
        DOLBIE_REQUIRE(v <= 1, "snapshot membership flag is not 0/1");
      }
      restore_report(r, core_.report_);
      restore_reliable_stats(r, core_.mirrored_);
      rel_->restore_from(r);
    }
    r.finish();
  } catch (...) {
    reset();
    throw;
  }
}

template class engine<mw_realization, null_timing>;
template class engine<fd_realization, null_timing>;
template class engine<mw_realization, mw_deadline_timing>;
template class engine<fd_realization, fd_deadline_timing>;

}  // namespace dolbie::dist
