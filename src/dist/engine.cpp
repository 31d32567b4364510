#include "dist/engine.h"

#include <algorithm>
#include <type_traits>

#include "common/error.h"
#include "common/simplex.h"
#include "common/snapshot.h"
#include "core/step_size.h"
#include "dist/fd_round.h"
#include "dist/mw_round.h"
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
    : n_(n_workers),
      options_(std::move(options)),
      net_(make_net<R>(n_workers)),
      timing_(timing) {
  normalize_options(options_, n_);
  net_.attach_tracer(options_.tracer, options_.trace_lane);
  faulty_ = options_.faults.enabled();
  if (faulty_) {
    net_.attach_faults(options_.faults);
    rel_ = std::make_unique<net::reliable_link>(
        net_, net::reliable_options{options_.retry_budget});
    rel_->attach_tracer(options_.tracer, options_.trace_lane);
  }
  flags_.setup(n_, /*all_pairs=*/!R::hub);
  scratch_.tentative.assign(n_, 0.0);
  // The async engines mirror only the shared dist.*/net.* fault counters.
  const bool sync = std::is_same_v<T, null_timing>;
  counters_.bind(options_.metrics, sync ? R::category : "", R::alpha_gauge,
                 faulty_);
  reset();
}

template <class R, class T>
void engine<R, T>::reset() {
  x_ = options_.initial_partition;
  const double alpha1 = options_.initial_step >= 0.0
                            ? options_.initial_step
                            : core::initial_step_size(x_);
  if constexpr (R::hub) {
    r_.alpha = alpha1;
  } else {
    r_.alpha_bar.assign(n_, alpha1);
  }
  net_.reset_traffic();
  last_traffic_ = {};
  round_ = 0;
  std::fill(flags_.removed.begin(), flags_.removed.end(), 0);
  report_ = {};
  mirrored_ = {};
  if (faulty_) rel_->reset();
}

template <class R, class T>
void engine<R, T>::play(const core::round_feedback& feedback) {
  DOLBIE_REQUIRE(feedback.costs != nullptr, "feedback carries no costs");
  play(*feedback.costs, feedback.local_costs);
}

template <class R, class T>
degraded_outcome engine<R, T>::play(const cost::cost_view& costs,
                                    std::span<const double> locals) {
  DOLBIE_REQUIRE(costs.size() == n_ && locals.size() == n_,
                 "round size mismatch for " << n_ << " workers");
  const std::uint64_t round = round_++;
  if (n_ == 1) {  // a single worker carries everything, no messages
    timing_.round_begin(locals, flags_.removed);
    return {};
  }
  if (!faulty_) net_.reset_traffic();
  net_.set_round(round);
  const net::traffic_totals start = net_.total_traffic();
  obs::tracer* tr = options_.tracer;
  const std::uint32_t lane = options_.trace_lane;
  obs::span round_span(tr, lane, round, "round", R::category);

  const auto run = [&](auto wire) {
    if constexpr (R::hub) {
      mw_degraded_round<decltype(wire), T> flow{n_,
                                                static_cast<net::node_id>(n_),
                                                costs,
                                                locals,
                                                options_.faults,
                                                wire,
                                                timing_,
                                                tr,
                                                lane,
                                                counters_.failover,
                                                report_,
                                                x_,
                                                r_.alpha,
                                                scratch_,
                                                flags_};
      return flow.run(round);
    } else {
      fd_degraded_round<decltype(wire), T> flow{n_,
                                                costs,
                                                locals,
                                                options_.faults,
                                                wire,
                                                timing_,
                                                tr,
                                                lane,
                                                counters_.failover,
                                                report_,
                                                x_,
                                                r_.alpha_bar,
                                                scratch_,
                                                flags_};
      const degraded_outcome out = flow.run(round);
      x_.swap(scratch_.next_x);
      return out;
    }
  };
  const degraded_outcome out = net::with_delivery(net_, rel_.get(), run);

  if (faulty_) {
    finish_degraded_round(out, rel_->stats(), tr, lane, R::category, round,
                          counters_, report_, mirrored_);
  } else {
    DOLBIE_REQUIRE(out.holds == 0 && out.failovers == 0 && !out.aborted,
                   "round " << round << " degraded without a fault plan");
  }
  DOLBIE_REQUIRE(on_simplex(x_),
                 "round " << round << " left the allocation off the simplex");
  const net::traffic_totals totals = net_.total_traffic();
  last_traffic_ = {totals.messages_sent - start.messages_sent,
                   totals.bytes_sent - start.bytes_sent};

  double alpha = out.consensus_alpha;
  if constexpr (R::hub) alpha = r_.alpha;
  round_span.arg("straggler", static_cast<std::uint64_t>(out.straggler));
  round_span.arg(R::hub ? "alpha_next" : "alpha_consensus", alpha);
  round_span.arg("messages",
                 static_cast<std::uint64_t>(last_traffic_.messages_sent));
  counters_.round_complete(alpha, static_cast<double>(out.straggler));
  return out;
}

template <class R, class T>
std::vector<std::uint8_t> engine<R, T>::snapshot() const {
  snapshot_writer w;
  write_snapshot_header(w, kind_of<T>(R::hub), n_);
  save(w, r_);
  w.u64(round_);
  for (const double v : x_) w.f64(v);
  w.u64(last_traffic_.messages_sent);
  w.u64(last_traffic_.bytes_sent);
  net_.snapshot_to(w);
  w.u8(faulty_ ? 1 : 0);
  if (faulty_) {
    for (const std::uint8_t v : flags_.removed) w.u8(v);
    snapshot_report(w, report_);
    snapshot_reliable_stats(w, mirrored_);
    rel_->snapshot_to(w);
  }
  return w.take();
}

template <class R, class T>
void engine<R, T>::restore(const std::vector<std::uint8_t>& bytes) {
  reset();
  try {
    snapshot_reader r(bytes);
    read_snapshot_header(r, kind_of<T>(R::hub), n_);
    load(r, r_);
    round_ = r.u64();
    for (double& v : x_) v = r.f64();
    last_traffic_.messages_sent = static_cast<std::size_t>(r.u64());
    last_traffic_.bytes_sent = static_cast<std::size_t>(r.u64());
    net_.restore_from(r);
    const std::uint8_t faulty = r.u8();
    DOLBIE_REQUIRE((faulty != 0) == faulty_,
                   "snapshot fault-path flag does not match this engine");
    if (faulty_) {
      for (std::uint8_t& v : flags_.removed) {
        v = r.u8();
        DOLBIE_REQUIRE(v <= 1, "snapshot membership flag is not 0/1");
      }
      restore_report(r, report_);
      restore_reliable_stats(r, mirrored_);
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
