#include "rota/fuzz/oracles.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <variant>

#include "rota/admission/audit.hpp"
#include "rota/admission/controller.hpp"
#include "rota/admission/negotiation.hpp"
#include "rota/admission/periodic.hpp"
#include "rota/cluster/cluster.hpp"
#include "rota/computation/actor_computation.hpp"
#include "rota/faults/schedule.hpp"
#include "rota/fuzz/exhaustive.hpp"
#include "rota/fuzz/gen.hpp"
#include "rota/logic/explorer.hpp"
#include "rota/logic/model_checker.hpp"
#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/plan/kernel.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/service/federation.hpp"

namespace rota::fuzz {

namespace {

/// splitmix64 step — the same mixer util::Rng seeds through, reused so the
/// per-case seed stream is well distributed for any run seed.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Collects check results for one oracle run.
class Recorder {
 public:
  Recorder(OracleReport& report, std::uint64_t seed, std::size_t case_index)
      : report_(report), seed_(seed), case_index_(case_index) {}

  /// Records a boolean expectation; `detail` is only evaluated on failure.
  template <typename DetailFn>
  bool expect(const char* check, bool ok, DetailFn&& detail) {
    ++report_.checks;
    if (!ok) fail(check, detail());
    return ok;
  }

  /// Records a referee comparison (nullopt = agreement).
  bool check(const char* check, const std::optional<std::string>& mismatch) {
    ++report_.checks;
    if (mismatch) fail(check, *mismatch);
    return !mismatch;
  }

  void fail(const char* check, const std::string& detail) {
    ++report_.divergence_count;
    if (report_.divergences.size() < OracleReport::kMaxRecorded) {
      report_.divergences.push_back(
          {report_.family, check, seed_, case_index_, detail});
    }
  }

 private:
  OracleReport& report_;
  std::uint64_t seed_;
  std::size_t case_index_;
};

std::string bool_pair(const char* what, bool production, bool referee) {
  std::ostringstream out;
  out << what << ": production says " << (production ? "true" : "false")
      << ", referee says " << (referee ? "true" : "false");
  return out.str();
}

}  // namespace

std::string Divergence::to_string() const {
  std::ostringstream out;
  out << family << '/' << check << " case " << case_index << " (case seed "
      << seed << "): " << detail;
  return out.str();
}

std::string OracleReport::summary() const {
  std::ostringstream out;
  out << family << ": " << cases << " cases, " << checks << " checks, "
      << divergence_count << " divergence(s)";
  return out.str();
}

std::uint64_t case_seed(std::uint64_t run_seed, std::size_t case_index) {
  return mix64(run_seed ^ mix64(static_cast<std::uint64_t>(case_index)));
}

// ===========================================================================
// Calculus oracle
// ===========================================================================

namespace {

void calculus_case(Gen& g, Recorder& rec) {
  const Tick lo = Gen::domain_lo();
  const Tick hi = Gen::domain_hi();

  // --- StepFunction ---------------------------------------------------------
  auto [f, fr] = g.step_function(6, true);
  auto [h, hr] = g.step_function(6, true);
  rec.check("fn-canonical", check_canonical(f));
  rec.check("fn-build", diff_fn(f, fr));

  rec.check("fn-plus", diff_fn(f.plus(h), fr.plus(hr)));
  rec.check("fn-minus", diff_fn(f.minus(h), fr.minus(hr)));
  rec.check("fn-min", diff_fn(f.min(h), fr.min(hr)));
  rec.check("fn-max", diff_fn(f.max(h), fr.max(hr)));
  rec.check("fn-minus-canonical", check_canonical(f.minus(h)));

  // Algebraic round-trips: the canonical representation must make these
  // exact identities, not just pointwise ones.
  rec.expect("fn-minus-plus-roundtrip", f.minus(h).plus(h) == f, [&] {
    return "f - h + h != f; f = " + f.to_string() + ", h = " + h.to_string();
  });
  rec.expect("fn-plus-minus-roundtrip", f.plus(h).minus(h) == f, [&] {
    return "f + h - h != f; f = " + f.to_string() + ", h = " + h.to_string();
  });

  const TimeInterval w = g.interval();
  rec.check("fn-restricted", diff_fn(f.restricted(w), fr.restricted(w)));
  {
    // drop_before() is the expiration transition: it must equal restriction
    // to [t, ∞) whether t lies before the support, on a segment boundary,
    // strictly inside a segment, or past the support.
    const auto& segs = f.segments();
    std::vector<Tick> cuts{lo - 1, hi};
    if (!segs.empty()) {
      const TimeInterval seg =
          segs[static_cast<std::size_t>(
                   g.rng().uniform(0, static_cast<std::int64_t>(segs.size()) - 1))]
              .interval;
      cuts = {segs.front().interval.start() - g.rng().uniform(0, 3),
              g.rng().chance(0.5) ? seg.start() : seg.end(),
              seg.length() > 1 ? seg.start() + g.rng().uniform(1, seg.length() - 1)
                               : seg.start(),
              segs.back().interval.end() + g.rng().uniform(0, 3)};
    }
    for (const Tick t : cuts) {
      StepFunction cut = f;
      cut.drop_before(t);
      const auto at_t = [t](std::optional<std::string> mismatch) {
        if (mismatch) *mismatch = "drop_before(" + std::to_string(t) + "): " + *mismatch;
        return mismatch;
      };
      rec.check("fn-drop-before", at_t(diff_fn(cut, fr.restricted(TimeInterval(t, hi)))));
      rec.check("fn-drop-before-canonical", at_t(check_canonical(cut)));
    }
  }
  rec.check("fn-clamped", diff_fn(f.clamped_nonnegative(), fr.clamped_nonnegative()));
  rec.expect("fn-min-value", f.min_value() == fr.min_value(), [&] {
    std::ostringstream out;
    out << "min_value: production " << f.min_value() << ", referee "
        << fr.min_value() << " for " << f.to_string();
    return out.str();
  });
  rec.expect("fn-min-over", f.min_over(w) == fr.min_over(w), [&] {
    std::ostringstream out;
    out << "min_over" << w.to_string() << ": production " << f.min_over(w)
        << ", referee " << fr.min_over(w) << " for " << f.to_string();
    return out.str();
  });
  rec.expect("fn-integral-window", f.integral(w) == fr.integral(w), [&] {
    std::ostringstream out;
    out << "integral" << w.to_string() << ": production " << f.integral(w)
        << ", referee " << fr.integral(w) << " for " << f.to_string();
    return out.str();
  });
  rec.expect("fn-integral", f.integral() == fr.integral(), [&] {
    std::ostringstream out;
    out << "integral: production " << f.integral() << ", referee "
        << fr.integral() << " for " << f.to_string();
    return out.str();
  });
  rec.expect("fn-dominates", f.dominates(h) == fr.dominates(hr), [&] {
    return bool_pair("dominates", f.dominates(h), fr.dominates(hr)) +
           "; f = " + f.to_string() + ", h = " + h.to_string();
  });

  const Tick dt = g.rng().uniform(-8, 8);
  rec.check("fn-shifted", diff_fn(f.shifted(dt), fr.shifted(dt)));
  const Tick factor = g.rng().uniform(1, 8);
  rec.check("fn-coarsened", diff_fn(f.coarsened(factor), fr.coarsened(factor)));
  rec.check("fn-coarsened-canonical", check_canonical(f.coarsened(factor)));

  {
    // support() / where_at_least() against the dense membership view.
    DenseSet support_ref(lo, hi);
    for (Tick t = lo; t < hi; ++t) {
      if (fr.at(t) > 0) support_ref.insert(TimeInterval(t, t + 1));
    }
    rec.check("fn-support", diff_set(f.support(), support_ref));
    const Rate threshold = g.rng().uniform(1, 5);
    DenseSet at_least_ref(lo, hi);
    for (Tick t = lo; t < hi; ++t) {
      if (w.contains(t) && fr.at(t) >= threshold) {
        at_least_ref.insert(TimeInterval(t, t + 1));
      }
    }
    rec.check("fn-where-at-least",
              diff_set(f.where_at_least(threshold, w), at_least_ref));
  }

  {
    const Quantity q = g.rng().uniform(0, 30);
    const auto got = f.earliest_cover(w, q);
    const auto want = fr.earliest_cover(w, q);
    rec.expect("fn-earliest-cover", got == want, [&] {
      std::ostringstream out;
      out << "earliest_cover(" << w.to_string() << ", " << q << "): production "
          << (got ? std::to_string(*got) : "nullopt") << ", referee "
          << (want ? std::to_string(*want) : "nullopt") << " for " << f.to_string();
      return out.str();
    });
    const auto got_l = f.latest_cover_start(w, q);
    const auto want_l = fr.latest_cover_start(w, q);
    rec.expect("fn-latest-cover-start", got_l == want_l, [&] {
      std::ostringstream out;
      out << "latest_cover_start(" << w.to_string() << ", " << q
          << "): production " << (got_l ? std::to_string(*got_l) : "nullopt")
          << ", referee " << (want_l ? std::to_string(*want_l) : "nullopt")
          << " for " << f.to_string();
      return out.str();
    });
  }

  // --- IntervalSet ----------------------------------------------------------
  auto [s, sr] = g.interval_set(5);
  auto [u, ur] = g.interval_set(5);
  rec.check("set-canonical", check_canonical(s));
  rec.check("set-build", diff_set(s, sr));
  rec.check("set-unioned", diff_set(s.unioned(u), sr.unioned(ur)));
  rec.check("set-unioned-canonical", check_canonical(s.unioned(u)));
  rec.check("set-intersected", diff_set(s.intersected(u), sr.intersected(ur)));
  rec.check("set-subtracted", diff_set(s.subtracted(u), sr.subtracted(ur)));
  rec.check("set-subtracted-canonical", check_canonical(s.subtracted(u)));
  {
    DenseSet wref(lo, hi);
    wref.insert(w);
    rec.check("set-intersected-window",
              diff_set(s.intersected(w), sr.intersected(wref)));
  }
  rec.expect("set-covers", s.covers(w) == sr.covers(w), [&] {
    return bool_pair("covers", s.covers(w), sr.covers(w)) + "; s = " +
           s.to_string() + ", w = " + w.to_string();
  });
  rec.expect("set-measure", s.measure() == sr.measure(), [&] {
    std::ostringstream out;
    out << "measure: production " << s.measure() << ", referee " << sr.measure()
        << " for " << s.to_string();
    return out.str();
  });
  rec.expect("set-hull", s.hull() == sr.hull(), [&] {
    return "hull: production " + s.hull().to_string() + ", referee " +
           sr.hull().to_string() + " for " + s.to_string();
  });

  // --- ResourceSet ----------------------------------------------------------
  auto [a, ar] = g.resource_set(4, 4, true);
  auto [b, br] = g.resource_set(4, 4, true);
  rec.check("res-canonical", check_canonical(a));
  rec.check("res-build", diff_resources(a, ar));
  rec.check("res-unioned", diff_resources(a.unioned(b), ar.unioned(br)));
  rec.check("res-unioned-canonical", check_canonical(a.unioned(b)));
  {
    ResourceSet in_place = a;
    in_place.union_with(b);
    rec.expect("res-union-with", in_place == a.unioned(b), [&] {
      return std::string("union_with result diverges from unioned");
    });
    rec.check("res-union-with-canonical", check_canonical(in_place));
  }
  rec.expect("res-dominates", a.dominates(b) == ar.dominates(br), [&] {
    return bool_pair("dominates", a.dominates(b), ar.dominates(br));
  });

  {
    const auto got = a.relative_complement(b);
    const auto want = ar.relative_complement(br);
    rec.expect("res-complement-defined", got.has_value() == want.has_value(), [&] {
      return bool_pair("relative_complement defined", got.has_value(),
                       want.has_value());
    });
    // The boundary pin: complement defined ⇔ dominates, always.
    rec.expect("res-complement-iff-dominates", got.has_value() == a.dominates(b),
               [&] {
                 return bool_pair("complement defined vs dominates",
                                  got.has_value(), a.dominates(b));
               });
    if (got && want) {
      rec.check("res-complement-value", diff_resources(*got, *want));
      rec.check("res-complement-canonical", check_canonical(*got));
    }
  }

  {
    // A constructed dominated pair: c = b ∪ extra (extra non-negative), so
    // c ≥ b pointwise by construction and c \ b must reproduce extra.
    auto [extra, extra_ref] = g.resource_set(3, 3, false);
    const ResourceSet c = b.unioned(extra);
    rec.expect("res-constructed-dominates", c.dominates(b),
               [&] { return std::string("b ∪ extra fails to dominate b"); });
    const auto diff = c.relative_complement(b);
    if (rec.expect("res-constructed-complement", diff.has_value(), [&] {
          return std::string("(b ∪ extra) \\ b undefined");
        })) {
      rec.check("res-constructed-complement-value",
                diff_resources(*diff, extra_ref));
      rec.expect("res-complement-union-roundtrip", diff->unioned(b) == c, [&] {
        return std::string("((b ∪ extra) \\ b) ∪ b != b ∪ extra");
      });
    }
  }

  rec.check("res-restricted", diff_resources(a.restricted(w), ar.restricted(w)));
  rec.check("res-restricted-canonical", check_canonical(a.restricted(w)));
  {
    const LocatedType type = g.located_type();
    rec.expect("res-quantity", a.quantity(type, w) == ar.quantity(type, w), [&] {
      std::ostringstream out;
      out << "quantity(" << type.to_string() << ", " << w.to_string()
          << "): production " << a.quantity(type, w) << ", referee "
          << ar.quantity(type, w);
      return out.str();
    });
  }
  {
    const Tick from = g.rng().uniform(Gen::term_lo(), Gen::term_hi());
    ResourceSet dropped = a;
    dropped.drop_before(from);
    DenseResources dropped_ref(lo, hi);
    for (const auto& [type, fn] : ar.entries()) {
      dropped_ref.of(type) = fn.restricted(TimeInterval(from, hi));
    }
    rec.check("res-drop-before", diff_resources(dropped, dropped_ref));
    // Includes the no-zero-profiles invariant: a type cut to nothing is gone.
    rec.check("res-drop-before-canonical", check_canonical(dropped));
  }
  {
    const ResourceSet coarse = a.coarsened(factor);
    DenseResources coarse_ref(lo, hi);
    for (const auto& [type, fn] : ar.entries()) {
      coarse_ref.of(type) = fn.coarsened(factor);
    }
    rec.check("res-coarsened", diff_resources(coarse, coarse_ref));
    rec.check("res-coarsened-canonical", check_canonical(coarse));
  }
  {
    // satisfies() against per-type dense quantities.
    DemandSet demand;
    const int entries = static_cast<int>(g.rng().uniform(1, 3));
    for (int i = 0; i < entries; ++i) {
      demand.add(g.located_type(), g.rng().uniform(1, 12));
    }
    bool ref_ok = true;
    for (const auto& [type, q] : demand.amounts()) {
      if (ar.quantity(type, w) < q) ref_ok = false;
    }
    rec.expect("res-satisfies", a.satisfies(demand, w) == ref_ok, [&] {
      return bool_pair("satisfies", a.satisfies(demand, w), ref_ok) +
             "; demand = " + demand.to_string() + ", w = " + w.to_string();
    });
  }
  {
    // terms() round-trip (non-negative sets only: terms cannot carry
    // negative rates).
    auto [nn, nn_ref] = g.resource_set(3, 4, false);
    ResourceSet rebuilt;
    for (const auto& term : nn.terms()) rebuilt.add(term);
    rec.expect("res-terms-roundtrip", rebuilt == nn, [&] {
      return "rebuilding from terms() changed the set: " + nn.to_string();
    });
    rec.check("res-terms-roundtrip-ref", diff_resources(rebuilt, nn_ref));
  }
  {
    // Long profiles. The generators above add at most 6 terms, so the in-place
    // add's binary search and neighbour splice only ever see a handful of
    // segments. Here 64-128 terms (negative rates included, half of them
    // short) build one profile and one resource set term by term, then a
    // whole profile is added into the long one.
    StepFunction long_f;
    DenseFn long_ref(lo, hi);
    ResourceSet long_set;
    DenseResources long_set_ref(lo, hi);
    const int terms = static_cast<int>(g.rng().uniform(64, 128));
    for (int i = 0; i < terms; ++i) {
      TimeInterval iv = g.interval();
      if (g.rng().chance(0.5)) {
        const Tick start = g.rng().uniform(Gen::term_lo(), Gen::term_hi());
        iv = TimeInterval(start, start + g.rng().uniform(1, 4));
      }
      const Rate rate = g.rng().uniform(-5, 5);
      long_f.add(iv, rate);
      long_ref.add(iv, rate);
      const LocatedType type = g.located_type();
      if (rate < 0) {
        long_set.add(type, StepFunction(iv, rate));  // terms carry no negative rate
      } else {
        long_set.add(rate, iv, type);
      }
      if (!iv.empty() && rate != 0) long_set_ref.of(type).add(iv, rate);
    }
    rec.check("fn-long-build", diff_fn(long_f, long_ref));
    rec.check("fn-long-canonical", check_canonical(long_f));
    long_f.add(f);
    rec.check("fn-long-add-profile", diff_fn(long_f, long_ref.plus(fr)));
    rec.check("fn-long-add-profile-canonical", check_canonical(long_f));
    rec.check("res-long-build", diff_resources(long_set, long_set_ref));
    rec.check("res-long-canonical", check_canonical(long_set));
    ResourceSet joined = long_set;
    joined.union_with(a);
    rec.check("res-long-union-with", diff_resources(joined, long_set_ref.unioned(ar)));
    rec.check("res-long-union-with-canonical", check_canonical(joined));
  }
}

}  // namespace

OracleReport run_calculus_oracle(std::uint64_t seed, std::size_t cases) {
  OracleReport report;
  report.family = "calculus";
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t cs = case_seed(seed, i);
    Recorder rec(report, cs, i);
    Gen g(cs);
    try {
      calculus_case(g, rec);
    } catch (const std::exception& e) {
      rec.fail("unexpected-exception", e.what());
    }
    ++report.cases;
  }
  return report;
}

// ===========================================================================
// Kernel oracle
// ===========================================================================

namespace {

std::string describe_decision(const AdmissionDecision& d) {
  std::ostringstream out;
  out << (d.accepted ? "accept" : "reject");
  if (!d.reason.empty()) out << " (" << d.reason << ')';
  if (d.plan) out << " finish=" << d.plan->finish;
  return out.str();
}

void kernel_case(Gen& g, Recorder& rec) {
  ResourceSet supply = g.resource_set(5, 5, false).first;

  const int n = static_cast<int>(g.rng().uniform(3, 8));
  std::vector<BatchRequest> requests;
  Tick at = 0;
  for (int i = 0; i < n; ++i) {
    at += g.rng().uniform(0, 3);
    requests.push_back({g.requirement("job" + std::to_string(i)), at});
  }

  // The sequential controller is the semantic baseline.
  RotaAdmissionController seq(CostModel{}, supply, PlanningPolicy::kAsap, 0);
  std::vector<AdmissionDecision> baseline;
  baseline.reserve(requests.size());
  for (const auto& r : requests) baseline.push_back(seq.request(r.rho, r.at));

  // Batched admission at several lane counts must reproduce it bit for bit.
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{5}, std::size_t{8}}) {
    BatchAdmissionController batch(CostModel{}, supply, PlanningPolicy::kAsap,
                                   lanes, 0);
    const std::vector<AdmissionDecision> got = batch.admit_batch(requests);
    if (!rec.expect("batch-decision-count", got.size() == baseline.size(), [&] {
          std::ostringstream out;
          out << "lanes=" << lanes << ": " << got.size() << " decisions for "
              << baseline.size() << " requests";
          return out.str();
        })) {
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool same = got[i].accepted == baseline[i].accepted &&
                        got[i].reason == baseline[i].reason &&
                        got[i].plan == baseline[i].plan;
      rec.expect("batch-decision-parity", same, [&] {
        std::ostringstream out;
        out << "lanes=" << lanes << " request " << i << " ("
            << requests[i].rho.name() << "): batch " << describe_decision(got[i])
            << ", sequential " << describe_decision(baseline[i]);
        return out.str();
      });
    }
    rec.expect("batch-residual-parity",
               batch.ledger().residual() == seq.ledger().residual(), [&] {
                 std::ostringstream out;
                 out << "lanes=" << lanes
                     << ": batch residual diverges from sequential";
                 return out.str();
               });
    rec.expect("batch-admitted-count",
               batch.ledger().admitted_count() == seq.ledger().admitted_count(),
               [&] {
                 std::ostringstream out;
                 out << "lanes=" << lanes << ": batch admitted "
                     << batch.ledger().admitted_count() << ", sequential "
                     << seq.ledger().admitted_count();
                 return out.str();
               });
  }

  // The daemon's claim path: ServiceNodeAdmission::admit_batch runs the
  // service dispatcher's rounds on a live service ledger that never expires.
  // It must still decide exactly like the sequential controller, and once
  // expired at its final clock its residual must be the sequential one.
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    CommitmentLedger ledger(supply, 0);
    service::ServiceConfig config;
    config.lanes = lanes;
    service::AdmissionService svc(ledger, CostModel{}, config);
    service::ServiceNodeAdmission node(svc);
    const std::vector<AdmissionDecision> got = node.admit_batch(requests);
    svc.drain_and_stop();
    if (!rec.expect("service-decision-count", got.size() == baseline.size(), [&] {
          std::ostringstream out;
          out << "lanes=" << lanes << ": " << got.size() << " decisions for "
              << baseline.size() << " requests";
          return out.str();
        })) {
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool same = got[i].accepted == baseline[i].accepted &&
                        got[i].reason == baseline[i].reason &&
                        got[i].plan == baseline[i].plan;
      rec.expect("service-decision-parity", same, [&] {
        std::ostringstream out;
        out << "lanes=" << lanes << " request " << i << " ("
            << requests[i].rho.name() << "): service " << describe_decision(got[i])
            << ", sequential " << describe_decision(baseline[i]);
        return out.str();
      });
    }
    ledger.expire();
    rec.expect("service-residual-parity",
               ledger.residual() == seq.ledger().residual(), [&] {
                 std::ostringstream out;
                 out << "lanes=" << lanes
                     << ": expired service residual diverges from sequential";
                 return out.str();
               });
  }

  // Window-parity audit: the admission capture keeps only the request's
  // effective window and shard footprint, and planning must not notice.
  // Replayed request by request, speculating against
  // capture(ledger, window, mask) must give the status and plan that
  // speculating against the whole-residual capture(ledger) gives.
  {
    CommitmentLedger ledger(supply, 0);
    const PlanningKernel kernel;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const BatchRequest& r = requests[i];
      const FeasibilitySnapshot whole = FeasibilitySnapshot::capture(ledger);
      rec.expect("snapshot-revision", whole.revision() == ledger.revision(),
                 [&] { return std::string("capture() revision != ledger revision"); });
      const FeasibilitySnapshot windowed = FeasibilitySnapshot::capture(
          ledger, effective_window(r.rho, r.at), touched_shard_mask(r.rho));
      const PlanResult full = kernel.speculate(r.rho, r.at, whole);
      const PlanResult narrow = kernel.speculate(r.rho, r.at, windowed);
      rec.expect("snapshot-window-parity",
                 full.status == narrow.status && full.plan == narrow.plan, [&] {
                   std::ostringstream out;
                   out << "request " << i << " (" << r.rho.name() << ") at "
                       << r.at << ": windowed capture "
                       << (narrow.feasible() ? "feasible" : narrow.reject_reason())
                       << ", whole capture "
                       << (full.feasible() ? "feasible" : full.reject_reason())
                       << (full.status == narrow.status ? " (plans differ)" : "");
                   return out.str();
                 });
      AdmissionDecision ignored;
      kernel.commit(narrow, ledger, ignored);
      ledger.expire();
    }
  }

  // Optimistic-concurrency audit: two speculations against one snapshot; the
  // second commit must be refused exactly when the first changed the residual.
  if (requests.size() >= 2) {
    CommitmentLedger ledger(supply, 0);
    const PlanningKernel kernel;
    const FeasibilitySnapshot snap = FeasibilitySnapshot::capture(ledger);
    const PlanResult r0 = kernel.speculate(requests[0].rho, requests[0].at, snap);
    const PlanResult r1 = kernel.speculate(requests[1].rho, requests[1].at, snap);
    AdmissionDecision d0, d1;
    rec.expect("stale-first-commit",
               kernel.commit(r0, ledger, d0) == CommitStatus::kCommitted, [&] {
                 return std::string("first commit against fresh snapshot refused");
               });
    const CommitStatus second = kernel.commit(r1, ledger, d1);
    // An accept moves the residual, but only in the shards its demand
    // touches: a second speculation with a disjoint shard footprint is
    // salvaged (committed as-is), not staled. An accepted plan consumes
    // every demanded type, so the first commit bumps exactly the shards of
    // requests[0]'s demand mask. The second speculation's footprint is its
    // *recorded* mask — empty (always salvageable) when the window was
    // already closed at arrival, since a deadline-passed verdict reads no
    // residual at all.
    const ShardMask overlap =
        touched_shard_mask(requests[0].rho) & r1.touched_mask;
    const CommitStatus expected =
        d0.accepted && (!r1.sharded || overlap != 0) ? CommitStatus::kStale
                                                     : CommitStatus::kCommitted;
    rec.expect("stale-second-commit", second == expected, [&] {
      std::ostringstream out;
      out << "second commit "
          << (second == CommitStatus::kStale ? "stale" : "committed")
          << " but first decision was " << describe_decision(d0)
          << " with shard overlap " << overlap;
      return out.str();
    });
    if (second == CommitStatus::kStale) {
      const FeasibilitySnapshot fresh = FeasibilitySnapshot::capture(ledger);
      const PlanResult redo =
          kernel.speculate(requests[1].rho, requests[1].at, fresh);
      rec.expect("stale-redo-commit",
                 kernel.commit(redo, ledger, d1) == CommitStatus::kCommitted,
                 [&] { return std::string("re-speculated commit refused"); });
    }
    // Either way the two decisions must match the sequential baseline.
    for (std::size_t i = 0; i < 2; ++i) {
      const AdmissionDecision& got = i == 0 ? d0 : d1;
      const bool same = got.accepted == baseline[i].accepted &&
                        got.reason == baseline[i].reason &&
                        got.plan == baseline[i].plan;
      rec.expect("stale-path-parity", same, [&] {
        std::ostringstream out;
        out << "speculate/commit request " << i << ": " << describe_decision(got)
            << ", sequential " << describe_decision(baseline[i]);
        return out.str();
      });
    }
  }

  // WAL-replay audit: re-admitting the audited plans through the commit gate
  // must reproduce the live residual exactly. The live ledger has expired
  // everything before its clock, and two residuals compare only at the same
  // time t, so the rebuilt ledger moves to that clock and expires first.
  {
    CommitmentLedger rebuilt(supply, 0);
    const PlanningKernel kernel;
    for (const AdmittedRecord& record : seq.ledger().admitted()) {
      rec.expect("replay-accepts",
                 kernel.replay(record.name, record.window, record.plan, rebuilt),
                 [&] { return "replay refused plan of " + record.name; });
    }
    rebuilt.advance_to(seq.ledger().now());
    rebuilt.expire();
    rec.expect("replay-residual", rebuilt.residual() == seq.ledger().residual(),
               [&] {
                 return std::string(
                     "replayed residual diverges from live residual");
               });
  }

  // Negotiation audit: the binary searches return *extremal* windows, so the
  // direct kernel probe (the same probe the search runs) must accept the
  // returned window and refuse the one-tick-tighter one.
  {
    const ConcurrentRequirement rho = g.requirement("nego");
    const PlanningKernel kernel;
    const FeasibilitySnapshot snap = FeasibilitySnapshot::capture(seq.ledger());
    const Tick s = rho.window().start();
    const Tick latest = rho.window().end() + g.rng().uniform(2, 8);
    const auto probe = [&](const TimeInterval& w) {
      return kernel.speculate(clip_requirement(rho, w), w.start(), snap).feasible();
    };
    const TimeInterval widest(s, latest);
    const auto d_star = earliest_feasible_deadline(snap, rho, latest, kernel);
    if (d_star) {
      rec.expect("nego-deadline-feasible",
                 probe(TimeInterval(s, *d_star)), [&] {
                   return "earliest_feasible_deadline returned d = " +
                          std::to_string(*d_star) +
                          " but the direct probe rejects it";
                 });
      if (*d_star > s + 1) {
        rec.expect("nego-deadline-minimal",
                   !probe(TimeInterval(s, *d_star - 1)), [&] {
                     return "d = " + std::to_string(*d_star) +
                            " is not minimal: d-1 also fits";
                   });
      }
    } else {
      rec.expect("nego-deadline-exhausted", !probe(widest), [&] {
        return "nullopt although the widest window [" + widest.to_string() +
               ") fits";
      });
    }
    const auto s_star = latest_feasible_start(snap, rho, kernel);
    const Tick d = rho.window().end();
    if (s_star) {
      rec.expect("nego-start-feasible",
                 probe(TimeInterval(*s_star, d)), [&] {
                   return "latest_feasible_start returned s = " +
                          std::to_string(*s_star) +
                          " but the direct probe rejects it";
                 });
      if (*s_star + 1 < d) {
        rec.expect("nego-start-maximal",
                   !probe(TimeInterval(*s_star + 1, d)), [&] {
                     return "s = " + std::to_string(*s_star) +
                            " is not maximal: s+1 also fits";
                   });
      }
    } else {
      rec.expect("nego-start-exhausted", !probe(rho.window()),
                 [&] {
                   return "nullopt although the original window " +
                          rho.window().to_string() + " fits";
                 });
    }
  }

  // Counter-offer audit: a rejection leaves the ledger untouched, and
  // accepting the suggested deadline by re-requesting must succeed (the offer
  // was probed against this exact residual). "Untouched" is judged at the
  // ledger's clock: a decision still expires supply before it.
  {
    const ConcurrentRequirement rho = g.requirement("offer");
    RotaAdmissionController ctl(CostModel{}, supply, PlanningPolicy::kAsap, 0);
    ResourceSet residual_before = ctl.ledger().residual();
    residual_before.drop_before(ctl.ledger().now());
    const std::size_t admitted_before = ctl.ledger().admitted_count();
    const Tick max_d = rho.window().end() + g.rng().uniform(2, 8);
    const CounterOffer offer = request_with_counter_offer(ctl, rho, 0, max_d);
    if (!offer.decision.accepted) {
      rec.expect("offer-reject-preserves-ledger",
                 ctl.ledger().residual() == residual_before &&
                     ctl.ledger().admitted_count() == admitted_before,
                 [&] {
                   return std::string(
                       "a rejected request with counter-offer probing moved "
                       "the ledger");
                 });
      if (offer.suggested_deadline) {
        const TimeInterval extended(rho.window().start(),
                                    *offer.suggested_deadline);
        const AdmissionDecision redo =
            ctl.request(clip_requirement(rho, extended), 0);
        rec.expect("offer-accepted-on-retry", redo.accepted, [&] {
          return "suggested deadline " +
                 std::to_string(*offer.suggested_deadline) +
                 " refused on re-request: " + redo.reason;
        });
      }
    }
  }

  // Periodic admission audit: admit_periodic must decide exactly like a
  // manual request loop over expand_periodic against a fresh controller, be
  // all-or-nothing on failure, and agree with sustainable_instances' pure
  // speculation.
  {
    const Location site("pf");
    ActorComputationBuilder builder("p.a", site);
    const int weight = static_cast<int>(g.rng().uniform(1, 3));
    auto gamma = std::move(builder.evaluate(weight)).build();
    const Tick s = g.rng().uniform(1, 6);
    const Tick len = g.rng().uniform(2, 6);
    const DistributedComputation task("ptask", {gamma}, s, s + len);
    const Tick period = g.rng().uniform(1, 8);
    const std::size_t count = static_cast<std::size_t>(g.rng().uniform(1, 4));
    ResourceSet psupply;
    psupply.add(g.rng().uniform(1, 3), TimeInterval(0, g.rng().uniform(8, 36)),
                LocatedType::cpu(site));

    RotaAdmissionController a(CostModel{}, psupply, PlanningPolicy::kAsap, 0);
    RotaAdmissionController b(CostModel{}, psupply, PlanningPolicy::kAsap, 0);
    const std::size_t sustained = sustainable_instances(a, task, period, count, 0);
    const PeriodicAdmission series = admit_periodic(a, task, period, count, 0);

    const auto instances = expand_periodic(task, period, count);
    bool manual_all = true;
    std::size_t manual_failed = 0;
    std::vector<AdmissionDecision> manual;
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const AdmissionDecision dec =
          b.request(make_concurrent_requirement(b.phi(), instances[k]), 0);
      if (!dec.accepted) {
        manual_all = false;
        manual_failed = k;
        break;
      }
      manual.push_back(dec);
    }

    rec.expect("periodic-verdict-parity", series.accepted == manual_all, [&] {
      std::ostringstream out;
      out << "admit_periodic " << (series.accepted ? "accepted" : "rejected")
          << " but the manual loop " << (manual_all ? "accepted" : "rejected")
          << " (period " << period << ", count " << count << ")";
      return out.str();
    });
    if (series.accepted && manual_all) {
      bool plans_match = series.plans.size() == manual.size();
      for (std::size_t k = 0; plans_match && k < manual.size(); ++k) {
        plans_match = manual[k].plan && series.plans[k] == *manual[k].plan;
      }
      rec.expect("periodic-plan-parity", plans_match, [&] {
        return std::string(
            "admit_periodic plans diverge from the manual loop's");
      });
      rec.expect("periodic-residual-parity",
                 a.ledger().residual() == b.ledger().residual(), [&] {
                   return std::string(
                       "series residual diverges from the manual loop's");
                 });
      rec.expect("periodic-sustainable-full", sustained == count, [&] {
        std::ostringstream out;
        out << "series admitted in full but sustainable_instances says "
            << sustained << " of " << count;
        return out.str();
      });
    } else if (!series.accepted && !manual_all) {
      rec.expect("periodic-failed-instance",
                 series.failed_instance == manual_failed, [&] {
                   std::ostringstream out;
                   out << "series failed at instance " << series.failed_instance
                       << ", manual loop at " << manual_failed;
                   return out.str();
                 });
      rec.expect("periodic-rollback",
                 series.plans.empty() && a.ledger().admitted_count() == 0 &&
                     a.ledger().residual() == a.ledger().supply(),
                 [&] {
                   return std::string(
                       "rejected series left commitments in the controller");
                 });
      rec.expect("periodic-sustainable-prefix", sustained == manual_failed, [&] {
        std::ostringstream out;
        out << "manual loop failed at instance " << manual_failed
            << " but sustainable_instances says " << sustained;
        return out.str();
      });
    }
  }
}

}  // namespace

OracleReport run_kernel_oracle(std::uint64_t seed, std::size_t cases) {
  OracleReport report;
  report.family = "kernel";
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t cs = case_seed(seed, i);
    Recorder rec(report, cs, i);
    Gen g(cs);
    try {
      kernel_case(g, rec);
    } catch (const std::exception& e) {
      rec.fail("unexpected-exception", e.what());
    }
    ++report.cases;
  }
  return report;
}

// ===========================================================================
// Sim oracle
// ===========================================================================

namespace {

/// Independent tick-replay referee for ComputationPath::expiring_resources:
/// accumulate supply (origin Θ from its clock, joins from theirs), subtract
/// every TickStep label at the tick it consumed, clamp, restrict.
DenseResources dense_expiring(const ComputationPath& path, std::size_t pos,
                              const TimeInterval& window) {
  const Tick lo = Gen::domain_lo();
  const Tick hi = Gen::domain_hi();
  DenseResources acc(lo, hi);

  const SystemState& origin = path.state(pos);
  for (const LocatedType& type : origin.theta().types()) {
    const StepFunction& f = origin.theta().availability(type);
    DenseFn& d = acc.of(type);
    for (Tick t = std::max(origin.now(), lo); t < hi; ++t) {
      d.set(t, d.at(t) + f.value_at(t));
    }
  }
  for (std::size_t i = pos; i < path.steps().size(); ++i) {
    if (const auto* join = std::get_if<JoinStep>(&path.steps()[i])) {
      const Tick visible_from = path.state(i).now();
      for (const LocatedType& type : join->joined.types()) {
        const StepFunction& f = join->joined.availability(type);
        DenseFn& d = acc.of(type);
        for (Tick t = std::max(visible_from, lo); t < hi; ++t) {
          d.set(t, d.at(t) + f.value_at(t));
        }
      }
    } else if (const auto* tick = std::get_if<TickStep>(&path.steps()[i])) {
      const Tick t = path.state(i).now();
      if (t < lo || t >= hi) continue;
      for (const ConsumptionLabel& label : tick->consumptions) {
        DenseFn& d = acc.of(label.type);
        d.set(t, d.at(t) - label.rate);
      }
    }
  }

  DenseResources out(lo, hi);
  for (const auto& [type, fn] : acc.entries()) {
    DenseFn& d = out.of(type);
    for (Tick t = lo; t < hi; ++t) {
      if (!window.contains(t)) continue;
      d.set(t, std::max<Rate>(fn.at(t), 0));
    }
  }
  return out;
}

/// The Figure 1 clip: (max(s, t), d) at a path position.
TimeInterval clip_at(const ComputationPath& path, std::size_t pos,
                     const TimeInterval& window) {
  return TimeInterval(std::max(window.start(), path.state(pos).now()),
                      window.end());
}

bool dense_satisfies_simple(const ComputationPath& path, std::size_t pos,
                            const SimpleRequirement& rho) {
  const TimeInterval clipped = clip_at(path, pos, rho.window());
  const DenseResources expiring = dense_expiring(path, pos, clipped);
  for (const auto& [type, q] : rho.demand().amounts()) {
    if (expiring.quantity(type, clipped) < q) return false;
  }
  return true;
}

/// Validates one concurrent plan pointwise against the tick-replay referee's
/// expiring budget; returns the first violation.
std::optional<std::string> validate_plan(const ConcurrentPlan& plan,
                                         const ConcurrentRequirement& rho,
                                         const TimeInterval& window,
                                         const DenseResources& budget) {
  const Tick lo = Gen::domain_lo();
  const Tick hi = Gen::domain_hi();

  std::map<LocatedType, DenseFn> usage;
  for (const ActorPlan& ap : plan.actors) {
    for (const auto& [type, f] : ap.usage) {
      auto [it, inserted] = usage.try_emplace(type, DenseFn(lo, hi));
      for (Tick t = lo; t < hi; ++t) {
        it->second.set(t, it->second.at(t) + f.value_at(t));
      }
    }
  }
  for (const auto& [type, used] : usage) {
    const DenseFn* have = budget.find(type);
    for (Tick t = lo; t < hi; ++t) {
      const Rate avail = have != nullptr ? have->at(t) : 0;
      if (used.at(t) < 0) {
        return "plan consumes a negative rate of " + type.to_string() +
               " at tick " + std::to_string(t);
      }
      if (used.at(t) > avail) {
        return "plan uses " + std::to_string(used.at(t)) + " of " +
               type.to_string() + " at tick " + std::to_string(t) +
               " with only " + std::to_string(avail) + " expiring";
      }
      if (!window.contains(t) && used.at(t) != 0) {
        return "plan consumes outside the window at tick " + std::to_string(t);
      }
    }
  }

  // Per-actor totals must meet the demand exactly.
  for (std::size_t i = 0; i < plan.actors.size() && i < rho.actors().size(); ++i) {
    const ActorPlan& ap = plan.actors[i];
    const DemandSet want = rho.actors()[i].total_demand();
    for (const auto& [type, q] : want.amounts()) {
      Quantity got = 0;
      const auto it = ap.usage.find(type);
      if (it != ap.usage.end()) got = it->second.integral();
      if (got != q) {
        return "actor " + ap.actor + " consumes " + std::to_string(got) +
               " of " + type.to_string() + ", demand is " + std::to_string(q);
      }
    }
  }
  if (plan.finish > window.end()) {
    return "plan finish " + std::to_string(plan.finish) + " past deadline " +
           std::to_string(window.end());
  }
  return std::nullopt;
}

void sim_cluster_checks(Gen& g, Recorder& rec) {
  using cluster::ClusterConfig;
  using cluster::ClusterReport;
  using cluster::ClusterSim;
  using cluster::NodeConfig;
  using cluster::NodeId;

  const int node_count = static_cast<int>(g.rng().uniform(2, 3));
  std::vector<Location> sites;
  std::vector<ResourceSet> supplies;
  for (int i = 0; i < node_count; ++i) {
    const Location site("cl" + std::to_string(i));
    sites.push_back(site);
    ResourceSet supply;
    supply.add(g.rng().uniform(2, 6), TimeInterval(0, 40), LocatedType::cpu(site));
    supply.add(g.rng().uniform(2, 6), TimeInterval(0, 40),
               LocatedType::memory(site));
    supplies.push_back(std::move(supply));
  }

  struct JobDraw {
    Tick at = 0;
    NodeId origin = 0;
    WorkSpec work;
  };
  std::vector<JobDraw> jobs;
  const int job_count = static_cast<int>(g.rng().uniform(2, 5));
  for (int j = 0; j < job_count; ++j) {
    JobDraw draw;
    draw.at = g.rng().uniform(0, 12);
    draw.origin = static_cast<NodeId>(g.rng().index(sites.size()));
    draw.work.actor = "cj" + std::to_string(j);
    draw.work.home = sites[draw.origin];
    const int chunks = static_cast<int>(g.rng().uniform(1, 2));
    for (int c = 0; c < chunks; ++c) {
      draw.work.chunk_weights.push_back(g.rng().uniform(1, 2));
    }
    draw.work.state_size = 1;
    draw.work.earliest_start = draw.at;
    draw.work.deadline = draw.at + g.rng().uniform(10, 30);
    jobs.push_back(std::move(draw));
  }

  ClusterConfig cfg;
  cfg.seed = g.rng().next_u64();
  cfg.node.lanes = static_cast<std::size_t>(g.rng().uniform(1, 2));
  cfg.node.gossip_period = 4;
  cfg.node.max_remote_rounds = 2;

  const auto build = [&](ClusterSim& sim) {
    for (int i = 0; i < node_count; ++i) sim.add_node(sites[i], supplies[i]);
    for (const JobDraw& j : jobs) {
      WorkSpec work = j.work;
      sim.submit(j.at, j.origin, std::move(work));
    }
  };

  ClusterSim sim_a(CostModel{}, cfg);
  ClusterSim sim_b(CostModel{}, cfg);
  build(sim_a);
  build(sim_b);
  const Tick horizon = 48;
  const ClusterReport ra = sim_a.run(horizon);
  const ClusterReport rb = sim_b.run(horizon);

  rec.expect("cluster-deterministic-log", ra.decision_log() == rb.decision_log(),
             [&] {
               return "same-seed cluster runs diverge:\n--- run A\n" +
                      ra.decision_log() + "--- run B\n" + rb.decision_log();
             });
  rec.expect("cluster-deterministic-fabric",
             ra.messages_sent == rb.messages_sent &&
                 ra.messages_dropped == rb.messages_dropped &&
                 ra.messages_delivered == rb.messages_delivered,
             [&] {
               std::ostringstream out;
               out << "fabric counters diverge: sent " << ra.messages_sent << "/"
                   << rb.messages_sent << ", dropped " << ra.messages_dropped
                   << "/" << rb.messages_dropped << ", delivered "
                   << ra.messages_delivered << "/" << rb.messages_delivered;
               return out.str();
             });
  rec.expect("cluster-decision-coverage", ra.decisions.size() == jobs.size(),
             [&] {
               std::ostringstream out;
               out << ra.decisions.size() << " decisions for " << jobs.size()
                   << " submitted jobs";
               return out.str();
             });

  // WAL replay: each node's audit log rebuilt onto a fresh ledger with the
  // node's base supply must reproduce the live residual.
  for (int i = 0; i < node_count; ++i) {
    const auto& node = sim_a.node(static_cast<NodeId>(i));
    CommitmentLedger rebuilt(supplies[static_cast<std::size_t>(i)], 0);
    const std::size_t replayed = node.audit().replay_into(rebuilt);
    rec.expect("cluster-replay-count",
               replayed == node.ledger().admitted_count(), [&] {
                 std::ostringstream out;
                 out << "node " << i << " replayed " << replayed << " of "
                     << node.ledger().admitted_count() << " admissions";
                 return out.str();
               });
    rec.expect("cluster-replay-residual",
               rebuilt.residual() == node.ledger().residual(), [&] {
                 std::ostringstream out;
                 out << "node " << i
                     << ": replayed residual diverges from live residual";
                 return out.str();
               });
  }
}

void sim_case(Gen& g, std::size_t case_index, Recorder& rec) {
  const Tick horizon = Gen::term_hi() + 8;

  ResourceSet supply = g.resource_set(3, 4, false).first;
  SystemState start(supply, 0);
  const int nreq = static_cast<int>(g.rng().uniform(1, 2));
  for (int i = 0; i < nreq; ++i) {
    start.accommodate(g.requirement("sim" + std::to_string(i)));
  }

  // --- Greedy determinism and greedy ⇒ search -------------------------------
  static constexpr PriorityOrder kAll[] = {
      PriorityOrder::kFcfs, PriorityOrder::kEdf, PriorityOrder::kLeastLaxity,
      PriorityOrder::kProportional};
  const PriorityOrder order = kAll[case_index % 4];
  const RunResult r1 = run_greedy(start, horizon, order);
  const RunResult r2 = run_greedy(start, horizon, order);
  rec.expect("greedy-deterministic",
             r1.path.steps() == r2.path.steps() &&
                 r1.path.back() == r2.path.back() && r1.all_met == r2.all_met &&
                 r1.finished_at == r2.finished_at,
             [&] {
               return "two run_greedy(" + priority_name(order) +
                      ") runs from one state disagree";
             });

  bool any_greedy_met = false;
  for (const PriorityOrder searched :
       {PriorityOrder::kEdf, PriorityOrder::kLeastLaxity, PriorityOrder::kFcfs}) {
    if (run_greedy(start, horizon, searched).all_met) any_greedy_met = true;
  }
  if (any_greedy_met) {
    rec.expect("greedy-implies-search",
               search_feasible(start, horizon).has_value(), [&] {
                 return std::string(
                     "a greedy order meets every deadline but search_feasible "
                     "finds nothing");
               });
  }

  // --- Θ_expire vs the tick-replay referee ----------------------------------
  const RunResult fcfs_run = order == PriorityOrder::kFcfs
                                 ? r1
                                 : run_greedy(start, horizon, PriorityOrder::kFcfs);
  const ComputationPath& path = fcfs_run.path;
  const std::size_t pos = g.rng().index(path.size());
  {
    const TimeInterval w = g.interval();
    const ResourceSet expiring = path.expiring_resources(pos, w);
    rec.check("expiring-canonical", check_canonical(expiring));
    rec.check("expiring-vs-replay",
              diff_resources(expiring, dense_expiring(path, pos, w)));
  }

  // --- Model checker vs brute force -----------------------------------------
  const ModelChecker checker(path);

  // satisfy(ρ(γ,s,d)) against dense expiring quantities.
  DemandSet demand;
  const int entries = static_cast<int>(g.rng().uniform(1, 2));
  for (int i = 0; i < entries; ++i) {
    demand.add(g.located_type(), g.rng().uniform(1, 12));
  }
  const SimpleRequirement simple(demand, g.admission_window());
  {
    const bool got = checker.satisfies(f_satisfy(simple), pos);
    const bool want = dense_satisfies_simple(path, pos, simple);
    rec.expect("satisfy-simple", got == want, [&] {
      return bool_pair("satisfy(simple)", got, want) + "; demand = " +
             demand.to_string() + ", window = " + simple.window().to_string();
    });
  }

  // satisfy(ρ(Γ,s,d)): single-actor verdicts are complete on both sides, so
  // the checker must agree with a brute-force schedule search over Θ_expire.
  {
    const ConcurrentRequirement donor = g.requirement("bf");
    const ComplexRequirement& actor = donor.actors().front();
    const bool got = checker.satisfies(f_satisfy(actor), pos);
    const TimeInterval clipped = clip_at(path, pos, actor.window());
    if (clipped.empty()) {
      rec.expect("satisfy-complex-expired", !got, [&] {
        return std::string("satisfiable although the clipped window is empty");
      });
    } else {
      const ResourceSet expiring = path.expiring_resources(pos, actor.window());
      SystemState brute(expiring, path.state(pos).now());
      const ComplexRequirement clipped_actor(actor.actor(), actor.phases(),
                                             clipped, actor.rate_cap());
      brute.accommodate(ConcurrentRequirement("bf", {clipped_actor}, clipped));
      const bool want = search_feasible(brute, clipped.end()).has_value();
      rec.expect("satisfy-complex-vs-search", got == want, [&] {
        return bool_pair("satisfy(complex)", got, want) + "; actor = " +
               actor.to_string() + " at position " + std::to_string(pos);
      });
    }
  }

  // satisfy(ρ(Λ,s,d)): full verdict parity against the symbolic engine's
  // exact verdict wherever it decides, greedy-plan soundness validated
  // pointwise against the tick-replay referee, and plan ⇒ not-infeasible.
  {
    const ConcurrentRequirement rho = g.requirement("cc");
    const bool got = checker.satisfies(f_satisfy(rho), pos);
    const TimeInterval clipped = clip_at(path, pos, rho.window());
    if (clipped.empty()) {
      rec.expect("satisfy-concurrent-expired", !got, [&] {
        return std::string(
            "concurrent satisfiable although the clipped window is empty");
      });
    } else {
      const ResourceSet expiring = path.expiring_resources(pos, rho.window());
      std::vector<ComplexRequirement> clipped_actors;
      for (const auto& a : rho.actors()) {
        clipped_actors.emplace_back(a.actor(), a.phases(), clipped, a.rate_cap());
      }
      const ConcurrentRequirement clipped_rho(rho.name(),
                                              std::move(clipped_actors), clipped);
      const auto plan =
          plan_concurrent(expiring, clipped_rho, PlanningPolicy::kAsap);
      if (plan) {
        rec.check("plan-soundness",
                  validate_plan(*plan, clipped_rho, clipped,
                                dense_expiring(path, pos, clipped)));
      }
      SystemState probe(expiring, path.state(pos).now());
      probe.accommodate(clipped_rho);
      const FeasibilityResult sym = decide_feasibility(probe, clipped.end());
      if (plan) {
        rec.expect("plan-implies-not-infeasible",
                   sym.verdict != FeasibilityVerdict::kInfeasible, [&] {
                     return "greedy planner found a plan for " + rho.name() +
                            " but the symbolic engine says infeasible";
                   });
      }
      if (sym.verdict != FeasibilityVerdict::kUnknown) {
        rec.expect("satisfy-concurrent-parity", got == sym.feasible(), [&] {
          return bool_pair("satisfy(concurrent)", got, sym.feasible()) +
                 "; rho = " + rho.name() + " at position " +
                 std::to_string(pos);
        });
      }
    }
  }

  // Temporal operators: the checker's ◇/□/¬ recursion against direct
  // enumeration over path positions, with atoms decided by the dense referee.
  {
    std::vector<char> ref(path.size());
    for (std::size_t p = 0; p < path.size(); ++p) {
      ref[p] = dense_satisfies_simple(path, p, simple) ? 1 : 0;
    }
    FormulaPtr formula = f_satisfy(simple);
    const int depth = static_cast<int>(g.rng().uniform(0, 3));
    for (int d = 0; d < depth; ++d) {
      std::vector<char> next(ref.size());
      switch (g.rng().index(3)) {
        case 0:
          formula = f_not(formula);
          for (std::size_t p = 0; p < ref.size(); ++p) next[p] = ref[p] ? 0 : 1;
          break;
        case 1:
          formula = f_eventually(formula);
          for (std::size_t p = 0; p < ref.size(); ++p) {
            next[p] = 0;
            for (std::size_t q = p + 1; q < ref.size(); ++q) {
              if (ref[q]) {
                next[p] = 1;
                break;
              }
            }
          }
          break;
        default:
          formula = f_always(formula);
          for (std::size_t p = 0; p < ref.size(); ++p) {
            next[p] = 1;
            for (std::size_t q = p + 1; q < ref.size(); ++q) {
              if (!ref[q]) {
                next[p] = 0;
                break;
              }
            }
          }
          break;
      }
      ref = std::move(next);
    }
    bool all_match = true;
    std::size_t first_bad = 0;
    for (std::size_t p = 0; p < path.size(); ++p) {
      if (checker.satisfies(formula, p) != static_cast<bool>(ref[p])) {
        all_match = false;
        first_bad = p;
        break;
      }
    }
    rec.expect("temporal-enumeration", all_match, [&] {
      return "checker disagrees with position enumeration for " +
             formula->to_string() + " first at position " +
             std::to_string(first_bad);
    });
  }

  // --- Cluster determinism and WAL replay -----------------------------------
  sim_cluster_checks(g, rec);
}

}  // namespace

OracleReport run_sim_oracle(std::uint64_t seed, std::size_t cases) {
  OracleReport report;
  report.family = "sim";
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t cs = case_seed(seed, i);
    Recorder rec(report, cs, i);
    Gen g(cs);
    try {
      sim_case(g, i, rec);
    } catch (const std::exception& e) {
      rec.fail("unexpected-exception", e.what());
    }
    ++report.cases;
  }
  return report;
}

// ===========================================================================
// Cluster oracle — hostile-conditions fault sweep
// ===========================================================================
//
// A random small cluster, a random workload, a seeded FaultSchedule drawn
// over the run, optionally closed-loop retry clients — built twice from the
// same draw and replayed. The referees pin:
//   * byte-identical decision logs and fabric/retry counters across replays;
//   * exact message accounting (sent = delivered + dropped + in-flight),
//     partitions purging in-flight traffic included;
//   * an independent loss referee recomputed from the schedule alone:
//     a placement admitted strictly after a crash survives it, one admitted
//     before an unrecovered crash that precedes its finish is lost, and
//     accepted decisions inherit exactly their placement's fate — the
//     satellite audit of restart(recover=false) against the report
//     invariants lives here;
//   * decision coverage: every submitted job and every injected retry gets
//     exactly one decision, horizon aborts included;
//   * execution: surviving placements replayed through the plan-following
//     Simulator complete inside their deadlines (SimReport::validate throws
//     on a completed-without-finish corpse);
//   * the DSL round trip: schedule → scenario `fault` lines → text → parse →
//     schedule, structurally equal.

namespace {

/// Everything one cluster fault case needs, kept so the sim can be rebuilt
/// from scratch for the replay run.
struct ClusterFaultDraw {
  struct Job {
    Tick at = 0;
    cluster::NodeId origin = 0;
    WorkSpec work;
  };

  std::vector<std::string> names;
  std::vector<Location> sites;
  std::vector<ResourceSet> supplies;
  std::vector<Job> jobs;
  cluster::ClusterConfig cfg;
  faults::FaultSchedule schedule;
  bool retries = false;
  faults::RetryPolicy retry_policy;
  std::uint64_t retry_seed = 0;
  Tick horizon = 64;
};

ClusterFaultDraw draw_cluster_fault_case(Gen& g) {
  ClusterFaultDraw draw;
  const int node_count = static_cast<int>(g.rng().uniform(2, 3));
  for (int i = 0; i < node_count; ++i) {
    const std::string name = "cl" + std::to_string(i);
    const Location site(name);
    draw.names.push_back(name);
    draw.sites.push_back(site);
    ResourceSet supply;
    supply.add(g.rng().uniform(2, 6), TimeInterval(0, 64), LocatedType::cpu(site));
    supply.add(g.rng().uniform(2, 6), TimeInterval(0, 64),
               LocatedType::memory(site));
    draw.supplies.push_back(std::move(supply));
  }

  const int job_count = static_cast<int>(g.rng().uniform(2, 6));
  for (int j = 0; j < job_count; ++j) {
    ClusterFaultDraw::Job job;
    job.at = g.rng().uniform(0, 16);
    job.origin = static_cast<cluster::NodeId>(g.rng().index(draw.sites.size()));
    job.work.actor = "fj" + std::to_string(j);
    job.work.home = draw.sites[job.origin];
    const int chunks = static_cast<int>(g.rng().uniform(1, 2));
    for (int c = 0; c < chunks; ++c) {
      job.work.chunk_weights.push_back(g.rng().uniform(1, 2));
    }
    job.work.state_size = 1;
    job.work.earliest_start = job.at;
    job.work.deadline = job.at + g.rng().uniform(10, 30);
    draw.jobs.push_back(std::move(job));
  }

  draw.cfg.seed = g.rng().next_u64();
  draw.cfg.node.lanes = static_cast<std::size_t>(g.rng().uniform(1, 2));
  draw.cfg.node.gossip_period = 4;
  draw.cfg.node.max_remote_rounds = 2;
  draw.cfg.node.expire_by_deadline = g.rng().chance(0.5);
  draw.cfg.default_link.jitter = g.rng().uniform(0, 2);
  draw.cfg.default_link.drop = g.rng().chance(0.5) ? 0.0 : 0.1;

  faults::FaultProfile profile;
  profile.crash_rate = 0.6;
  profile.restart_probability = 0.8;
  profile.recover_probability = 0.5;
  profile.min_outage = 0;  // same-tick crash→restart bounces included
  profile.max_outage = 10;
  profile.partition_rate = 0.5;
  profile.min_cut = 0;
  profile.max_cut = 12;
  profile.heal_probability = 0.8;
  draw.schedule = faults::make_fault_schedule(g.rng(), draw.sites.size(),
                                              draw.horizon, profile);

  draw.retries = g.rng().chance(0.5);
  if (draw.retries) {
    draw.retry_policy.max_attempts = static_cast<std::size_t>(g.rng().uniform(2, 4));
    draw.retry_policy.backoff_base = 1;
    draw.retry_policy.backoff_cap = 4;
    draw.retry_policy.jitter = g.rng().uniform(0, 2);
    draw.retry_seed = g.rng().next_u64();
  }
  return draw;
}

cluster::ClusterSim build_cluster_fault_sim(const ClusterFaultDraw& draw) {
  cluster::ClusterSim sim(CostModel{}, draw.cfg);
  for (std::size_t i = 0; i < draw.sites.size(); ++i) {
    sim.add_node(draw.sites[i], draw.supplies[i]);
  }
  for (const ClusterFaultDraw::Job& j : draw.jobs) {
    sim.submit(j.at, j.origin, j.work);
  }
  sim.apply(draw.schedule);
  if (draw.retries) sim.set_retry_policy(draw.retry_policy, draw.retry_seed);
  return sim;
}

/// The loss referee's own outage table, recomputed from the schedule alone:
/// per node, (crash_at, restart_at or kTickMax, recovered) in timeline order.
std::vector<std::vector<std::tuple<Tick, Tick, bool>>> referee_outages(
    const faults::FaultSchedule& schedule, std::size_t nodes) {
  std::vector<faults::FaultEvent> ordered = schedule.events();
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const faults::FaultEvent& x, const faults::FaultEvent& y) {
                     return x.at < y.at;
                   });
  std::vector<std::vector<std::tuple<Tick, Tick, bool>>> outages(nodes);
  for (const faults::FaultEvent& e : ordered) {
    if (e.kind == faults::FaultEvent::Kind::kCrash) {
      outages[e.a].emplace_back(e.at, kTickMax, false);
    } else if (e.kind == faults::FaultEvent::Kind::kRestart &&
               !outages[e.a].empty()) {
      auto& [crash_at, restart_at, recovered] = outages[e.a].back();
      (void)crash_at;
      restart_at = e.at;
      recovered = e.recover;
    }
  }
  return outages;
}

void cluster_fault_case(Gen& g, Recorder& rec) {
  using cluster::ClusterReport;
  using cluster::ClusterSim;
  using cluster::JobDecision;
  using cluster::PlacedAdmission;
  using cluster::Placement;

  const ClusterFaultDraw draw = draw_cluster_fault_case(g);

  ClusterSim sim_a = build_cluster_fault_sim(draw);
  ClusterSim sim_b = build_cluster_fault_sim(draw);
  const ResourceSet total = sim_a.total_supply();
  const ClusterReport ra = sim_a.run(draw.horizon);
  const ClusterReport rb = sim_b.run(draw.horizon);

  // --- determinism across an identical replay -------------------------------
  rec.expect("cluster-deterministic-log", ra.decision_log() == rb.decision_log(),
             [&] {
               return "same-seed fault runs diverge:\n--- run A\n" +
                      ra.decision_log() + "--- run B\n" + rb.decision_log() +
                      "--- schedule\n" + draw.schedule.to_string();
             });
  rec.expect("cluster-deterministic-fabric",
             ra.messages_sent == rb.messages_sent &&
                 ra.messages_dropped == rb.messages_dropped &&
                 ra.messages_delivered == rb.messages_delivered &&
                 ra.messages_in_flight == rb.messages_in_flight,
             [&] {
               std::ostringstream out;
               out << "fabric counters diverge: sent " << ra.messages_sent << "/"
                   << rb.messages_sent << ", dropped " << ra.messages_dropped
                   << "/" << rb.messages_dropped << ", delivered "
                   << ra.messages_delivered << "/" << rb.messages_delivered
                   << ", in-flight " << ra.messages_in_flight << "/"
                   << rb.messages_in_flight;
               return out.str();
             });
  rec.expect("cluster-deterministic-retries",
             ra.resubmissions == rb.resubmissions &&
                 ra.retry_root == rb.retry_root,
             [&] {
               std::ostringstream out;
               out << "retry streams diverge: " << ra.resubmissions << "/"
                   << rb.resubmissions << " resubmissions";
               return out.str();
             });

  // --- message accounting ---------------------------------------------------
  rec.expect("cluster-message-accounting",
             ra.messages_sent == ra.messages_delivered + ra.messages_dropped +
                                     ra.messages_in_flight,
             [&] {
               std::ostringstream out;
               out << "messages leak: sent " << ra.messages_sent
                   << " != delivered " << ra.messages_delivered << " + dropped "
                   << ra.messages_dropped << " + in-flight "
                   << ra.messages_in_flight;
               return out.str();
             });

  // --- decision coverage: originals + injected retries, exactly once -------
  {
    std::vector<std::uint64_t> expected;
    for (std::size_t j = 0; j < draw.jobs.size(); ++j) {
      expected.push_back(static_cast<std::uint64_t>(j));
    }
    for (const auto& [retry, root] : ra.retry_root) {
      (void)root;
      expected.push_back(retry);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::uint64_t> got;
    for (const JobDecision& d : ra.decisions) got.push_back(d.id);
    std::sort(got.begin(), got.end());
    rec.expect("cluster-decision-coverage", got == expected, [&] {
      std::ostringstream out;
      out << got.size() << " decisions for " << expected.size()
          << " submissions (" << draw.jobs.size() << " jobs + "
          << ra.retry_root.size() << " retries)";
      return out.str();
    });
  }

  // --- the loss referee: recompute every placement's fate from the schedule
  const auto outages = referee_outages(draw.schedule, draw.sites.size());
  const auto referee_lost = [&](const PlacedAdmission& p) {
    // Faults apply at tick start, so an admission stamped at the crash tick
    // happened after a same-tick restart and survives; only a crash strictly
    // between admission and planned finish, never recovered, destroys it.
    for (const auto& [crash_at, restart_at, recovered] : outages[p.node]) {
      (void)restart_at;
      if (!recovered && crash_at > p.at && crash_at < p.plan.finish) return true;
    }
    return false;
  };
  for (const PlacedAdmission& p : ra.placements) {
    rec.expect("cluster-lost-referee", p.lost == referee_lost(p), [&] {
      std::ostringstream out;
      out << "placement job " << p.job << " at node " << p.node << " (at="
          << p.at << ", finish=" << p.plan.finish << ") marked lost="
          << (p.lost ? "true" : "false") << ", referee says "
          << (p.lost ? "false" : "true") << "\nschedule:\n"
          << draw.schedule.to_string();
      return out.str();
    });
  }
  for (const JobDecision& d : ra.decisions) {
    if (d.outcome == Placement::kRejected) continue;
    const PlacedAdmission* placed = nullptr;
    for (const PlacedAdmission& p : ra.placements) {
      if (p.job == d.id && p.node == d.placed) {
        placed = &p;
        break;
      }
    }
    if (!rec.expect("cluster-accept-has-placement", placed != nullptr, [&] {
          return "accepted decision without a placement: " + d.to_string();
        })) {
      continue;
    }
    rec.expect("cluster-decision-lost-inheritance", d.lost == placed->lost,
               [&] {
                 return "decision and placement disagree on loss: " +
                        d.to_string();
               });
  }

  // --- execution: surviving placements meet their deadlines ----------------
  std::size_t surviving = 0;
  for (const PlacedAdmission& p : ra.placements) {
    if (!p.lost) ++surviving;
  }
  try {
    Simulator exec(total, 0, ExecutionMode::kPlanFollowing);
    ra.schedule_into(exec);
    const SimReport outcome = exec.run(draw.horizon + 64);
    rec.expect("cluster-exec-deadlines",
               outcome.outcomes.size() == surviving && outcome.missed() == 0,
               [&] {
                 std::ostringstream out;
                 out << outcome.outcomes.size() << " outcomes for " << surviving
                     << " surviving placements, " << outcome.missed()
                     << " missed deadlines";
                 return out.str();
               });
  } catch (const std::exception& e) {
    // Simulator::run validates its report; a throw is an invariant corpse
    // (e.g. completed without finished_at after an unrecovered restart).
    rec.fail("cluster-exec-invariants", e.what());
  }

  // --- DSL round trip -------------------------------------------------------
  try {
    Scenario scenario;
    for (std::size_t i = 0; i < draw.names.size(); ++i) {
      scenario.nodes.push_back(ScenarioNode{draw.names[i], draw.names[i], 1});
    }
    scenario.faults = faults::to_scenario_faults(draw.schedule, draw.names);
    const Scenario reparsed = parse_scenario_string(scenario_to_string(scenario));
    rec.expect("cluster-fault-dsl-parse", reparsed.faults == scenario.faults,
               [&] {
                 return "fault statements changed across write/parse:\n" +
                        scenario_to_string(scenario);
               });
    const faults::FaultSchedule back =
        faults::from_scenario_faults(reparsed.faults, draw.names);
    rec.expect("cluster-fault-dsl-roundtrip", back == draw.schedule, [&] {
      return "schedule changed across the DSL round trip:\n--- original\n" +
             draw.schedule.to_string() + "--- round-tripped\n" + back.to_string();
    });
  } catch (const std::exception& e) {
    rec.fail("cluster-fault-dsl-exception", e.what());
  }
}

}  // namespace

OracleReport run_cluster_oracle(std::uint64_t seed, std::size_t cases) {
  OracleReport report;
  report.family = "cluster";
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t cs = case_seed(seed, i);
    Recorder rec(report, cs, i);
    Gen g(cs);
    try {
      cluster_fault_case(g, rec);
    } catch (const std::exception& e) {
      rec.fail("unexpected-exception", e.what());
    }
    ++report.cases;
  }
  return report;
}

// ===========================================================================
// Feasibility oracle — symbolic engine vs static-order sweep
// ===========================================================================

namespace {

/// A small-window instance kept in parts so the minimizer can rebuild
/// subsets: supply over [0, horizon), 1–3 actors with their own windows.
struct FeasibilityDraw {
  ResourceSet supply;
  std::vector<ComplexRequirement> actors;
  Tick horizon = 0;
};

SystemState materialize(const FeasibilityDraw& draw) {
  SystemState state(draw.supply, 0);
  if (!draw.actors.empty()) {
    state.accommodate(
        ConcurrentRequirement("fz", draw.actors, TimeInterval(0, draw.horizon)));
  }
  return state;
}

std::string describe_draw(const FeasibilityDraw& draw) {
  std::ostringstream out;
  out << draw.actors.size() << " actor(s), horizon " << draw.horizon
      << ", supply " << draw.supply.to_string();
  for (const auto& a : draw.actors) {
    out << "; " << a.to_string();
    // to_string omits the absorption cap, and an invisible cap once made a
    // minimized repro look like a sweep bug — keep it in the dump.
    if (a.rate_cap() > 0) out << " cap " << a.rate_cap();
  }
  return out.str();
}

/// Windows W ∈ [3, 9], 1–3 actors, 1–2 located types, modest rates: small
/// enough that the static-order sweep never refuses and the exhaustive
/// referee can adjudicate the tiniest instances, rich enough (staggered
/// windows, supply steps, rate caps, two phases) to exercise every
/// constraint family of the encoding.
FeasibilityDraw draw_feasibility_instance(Gen& g) {
  FeasibilityDraw draw;
  draw.horizon = g.rng().uniform(3, 9);
  const Location site("fz");
  std::vector<LocatedType> types{LocatedType::cpu(site)};
  if (g.rng().chance(0.5)) types.push_back(LocatedType::memory(site));
  for (const LocatedType& t : types) {
    draw.supply.add(g.rng().uniform(1, 4), TimeInterval(0, draw.horizon), t);
  }
  if (g.rng().chance(0.3)) {
    // A supply step partway through the window: expiry pressure.
    draw.supply.add(g.rng().uniform(1, 3),
                    TimeInterval(g.rng().uniform(0, draw.horizon - 1), draw.horizon),
                    types[g.rng().index(types.size())]);
  }
  const int actor_count = static_cast<int>(g.rng().uniform(1, 3));
  for (int a = 0; a < actor_count; ++a) {
    TimeInterval window(0, draw.horizon);
    if (g.rng().chance(0.4)) {
      const Tick lo = g.rng().uniform(0, draw.horizon - 2);
      window = TimeInterval(lo, g.rng().uniform(lo + 2, draw.horizon));
    }
    const int phase_count = static_cast<int>(g.rng().uniform(1, 2));
    std::vector<Phase> phases;
    std::size_t cursor = 0;
    for (int p = 0; p < phase_count; ++p) {
      Phase phase;
      const int demands = static_cast<int>(g.rng().uniform(1, 2));
      for (int d = 0; d < demands; ++d) {
        phase.demand.add(types[g.rng().index(types.size())],
                         g.rng().uniform(1, 5));
      }
      phase.first_action = cursor;
      phase.action_count = 1;
      cursor += 1;
      phases.push_back(std::move(phase));
    }
    const Rate cap = g.rng().chance(0.4) ? g.rng().uniform(1, 3) : 0;
    draw.actors.emplace_back("fz-a" + std::to_string(a), std::move(phases),
                             window, cap);
  }
  return draw;
}

/// The instances the static-priority sweep is exact on: single phase AND no
/// absorption caps. Multi-phase schedules can need a leading actor throttled
/// below its water-fill share; capped schedules can need the priority order
/// to *switch* between ticks (give the capped actor its cap first, then yield
/// the remainder) — neither is expressible as one static permutation.
bool sweep_exact_domain(const FeasibilityDraw& draw) {
  for (const ComplexRequirement& a : draw.actors) {
    if (a.phase_count() > 1 || a.rate_cap() > 0) return false;
  }
  return true;
}

/// True iff some static priority order meets every deadline (the draws stay
/// under the sweep's actor ceiling, so it never refuses).
bool sweep_finds_path(const FeasibilityDraw& draw) {
  const auto sweep = static_order_sweep(draw.supply, draw.actors, draw.horizon);
  return sweep && sweep->path.has_value();
}

/// Every commitment of the path's final state finished by its deadline.
bool meets_deadlines(const ComputationPath& path) {
  for (const ActorProgress& p : path.back().commitments()) {
    if (!p.finished() || *p.finished_at > p.window.end()) return false;
  }
  return true;
}

struct EngineVerdicts {
  FeasibilityVerdict symbolic = FeasibilityVerdict::kUnknown;
  bool sweep = false;  // some static order met every deadline
  bool sweep_exact = true;

  /// A *contradiction* between the engines, not a mere difference. The
  /// sweep enumerates static priority orders, so it can miss feasible
  /// instances outside its exact domain: multi-phase schedules that
  /// throttle a leading actor below its water-fill share, and rate-capped
  /// schedules that switch priority between ticks — the fuzz harness found
  /// live instances of both, and the symbolic witnesses replayed. What may
  /// never happen: the sweep produces a path the symbolic engine calls
  /// infeasible, or the two decide an instance inside the sweep's exact
  /// domain (single-phase, uncapped) differently.
  bool disagree() const {
    if (symbolic == FeasibilityVerdict::kUnknown) return false;
    const bool sym_feasible = symbolic == FeasibilityVerdict::kFeasible;
    if (sweep && !sym_feasible) return true;
    return sweep_exact && sym_feasible != sweep;
  }
};

EngineVerdicts decide_both(const FeasibilityDraw& draw,
                           const FeasibilityOptions& options) {
  EngineVerdicts v;
  const SystemState state = materialize(draw);
  v.symbolic = decide_feasibility(state, draw.horizon, options).verdict;
  v.sweep = sweep_finds_path(draw);
  v.sweep_exact = sweep_exact_domain(draw);
  return v;
}

/// Shrinks a diverging instance before reporting it: drop actors one at a
/// time, then shorten the horizon, keeping each reduction only while the
/// divergence survives. Bounded at 32 re-decisions.
FeasibilityDraw minimize_divergence(FeasibilityDraw draw,
                                    const FeasibilityOptions& options) {
  std::size_t budget = 32;
  bool shrunk = true;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (std::size_t i = 0; draw.actors.size() > 1 && i < draw.actors.size();
         ++i) {
      if (budget == 0) break;
      FeasibilityDraw candidate = draw;
      candidate.actors.erase(candidate.actors.begin() +
                             static_cast<std::ptrdiff_t>(i));
      --budget;
      if (decide_both(candidate, options).disagree()) {
        draw = std::move(candidate);
        shrunk = true;
        break;
      }
    }
    while (draw.horizon > 3 && budget > 0) {
      FeasibilityDraw candidate = draw;
      --candidate.horizon;
      --budget;
      if (!decide_both(candidate, options).disagree()) break;
      draw = std::move(candidate);
      shrunk = true;
    }
  }
  return draw;
}

void feasibility_case(Gen& g, Recorder& rec) {
  const FeasibilityDraw draw = draw_feasibility_instance(g);
  const SystemState state = materialize(draw);

  // Generous budget: a small-window instance the engine cannot decide under
  // it is itself a bug worth a divergence report.
  FeasibilityOptions options;
  options.node_budget = 2'000'000;
  options.max_ticks = 512;

  const FeasibilityResult sym = decide_feasibility(state, draw.horizon, options);
  if (!rec.expect("symbolic-decided",
                  sym.verdict != FeasibilityVerdict::kUnknown, [&] {
                    return "budget exhausted on a small instance: " +
                           describe_draw(draw);
                  })) {
    return;
  }

  // Bit-identical re-decision: verdict, witness schedule, and boundaries.
  {
    const FeasibilityResult again =
        decide_feasibility(state, draw.horizon, options);
    rec.expect("symbolic-deterministic",
               sym.verdict == again.verdict && sym.schedule == again.schedule &&
                   sym.boundaries == again.boundaries,
               [&] {
                 return "two decisions of one instance disagree: " +
                        describe_draw(draw);
               });
  }

  // kFeasible must come with a witness that replays through the transition
  // rules and finishes every commitment inside its window.
  if (sym.feasible()) {
    rec.expect("witness-replays", realize_feasibility(state, sym).has_value(),
               [&] {
                 return "witness schedule failed to replay: " +
                        describe_draw(draw);
               });
  }

  // The production ladder — greedy orders, then the engine under default
  // options — must be exact wherever that engine decides, and every path it
  // returns must meet every deadline.
  {
    const FeasibilityVerdict verdict =
        decide_feasibility(state, draw.horizon).verdict;
    const auto laddered = search_feasible(state, draw.horizon);
    if (verdict != FeasibilityVerdict::kUnknown) {
      rec.expect("ladder-exact",
                 laddered.has_value() == (verdict == FeasibilityVerdict::kFeasible),
                 [&] {
                   return bool_pair("feasible", laddered.has_value(),
                                    verdict == FeasibilityVerdict::kFeasible) +
                          "; instance: " + describe_draw(draw);
                 });
    }
    if (laddered) {
      rec.expect("ladder-exact", meets_deadlines(*laddered), [&] {
        return "search_feasible returned a path that misses a deadline: " +
               describe_draw(draw);
      });
    }
  }

  // The static-order sweep independently decides the same instance. A path
  // from the sweep is a constructive proof, so the symbolic engine may never
  // contradict it; and inside the sweep's exact domain (single-phase,
  // uncapped) the two must agree outright. Outside it,
  // "symbolic-feasible, sweep-refused" is the sweep's documented
  // incompleteness — static priority orders cannot throttle a multi-phase
  // leader below its water-fill share, nor switch priority between ticks the
  // way rate-capped schedules can require — and the witness-replays check
  // above already proved such verdicts constructively. Divergences are
  // minimized before reporting.
  const bool swept = sweep_finds_path(draw);
  rec.expect("sweep-refutes-symbolic", !swept || sym.feasible(), [&] {
    const FeasibilityDraw minimal = minimize_divergence(draw, options);
    return bool_pair("feasible", sym.feasible(), swept) +
           "; minimized instance: " + describe_draw(minimal);
  });
  if (sweep_exact_domain(draw)) {
    rec.expect("static-sweep-parity", sym.feasible() == swept, [&] {
      const FeasibilityDraw minimal = minimize_divergence(draw, options);
      return bool_pair("feasible", sym.feasible(), swept) +
             "; minimized instance: " + describe_draw(minimal);
    });
  }

  // The tiniest instances get a third, assumption-free adjudicator: the
  // bounded exhaustive tick-level scheduler.
  if (draw.actors.size() <= 2 && draw.horizon <= 7) {
    const auto exact = exhaustive_feasible(state, draw.horizon, 200'000);
    if (exact) {
      rec.expect("symbolic-vs-exhaustive", sym.feasible() == *exact, [&] {
        return bool_pair("feasible", sym.feasible(), *exact) +
               "; instance: " + describe_draw(draw);
      });
      // One-sided for the same reason as above: a sweep path implies
      // feasibility, but the sweep may refuse feasible instances outside its
      // exact domain. Inside it (single-phase, uncapped) the sweep is held
      // to full agreement with the exhaustive scheduler.
      const bool sweep_sound = !swept || *exact;
      rec.expect("sweep-vs-exhaustive",
                 sweep_exact_domain(draw) ? swept == *exact : sweep_sound,
                 [&] {
                   return bool_pair("feasible", swept, *exact) +
                          "; instance: " + describe_draw(draw);
                 });
    }
  }
}

}  // namespace

OracleReport run_feasibility_oracle(std::uint64_t seed, std::size_t cases) {
  OracleReport report;
  report.family = "feasibility";
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t cs = case_seed(seed, i);
    Recorder rec(report, cs, i);
    Gen g(cs);
    try {
      feasibility_case(g, rec);
    } catch (const std::exception& e) {
      rec.fail("unexpected-exception", e.what());
    }
    ++report.cases;
  }
  return report;
}

}  // namespace rota::fuzz
