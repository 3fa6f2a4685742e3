// Resource sets (Θ in the paper): collections of resource terms with
// automatic simplification.
//
// Internally a resource set keys a canonical step function of available rate
// by located type. This makes the paper's operations exact and cheap:
//   * union (resources joining)       = pointwise addition,
//   * simplification                  = canonical segment form,
//   * relative complement (consuming) = pointwise subtraction, defined only
//     when the subtrahend is dominated everywhere,
//   * term extraction                 = reading the segments back out.
//
// The per-type profiles live in a flat vector sorted by located type (no
// zero functions stored). Admission planning unions and subtracts resource
// sets on every request, so complement and dominance are merge walks over the
// two sorted vectors — one pass, no node allocations — rather than per-key
// tree lookups, and union adds each incoming profile in place, touching only
// the segments it overlaps.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rota/resource/demand.hpp"
#include "rota/resource/resource_term.hpp"
#include "rota/resource/step_function.hpp"

namespace rota {

class ResourceSet {
 public:
  ResourceSet() = default;
  ResourceSet(std::initializer_list<ResourceTerm> terms) {
    for (const auto& t : terms) add(t);
  }

  /// Union with a single term (Θ ∪ {[r]^τ_ξ}), simplifying as the paper does.
  void add(const ResourceTerm& term);
  void add(Rate rate, const TimeInterval& interval, const LocatedType& type) {
    add(ResourceTerm(rate, interval, type));
  }
  /// Union with a whole per-type profile; moves the profile into place when
  /// the type is new.
  void add(const LocatedType& type, StepFunction profile);

  /// Θ1 ∪ Θ2 with simplification.
  ResourceSet unioned(const ResourceSet& other) const&;
  /// Move-aware overload: reuses this set's storage.
  ResourceSet unioned(const ResourceSet& other) &&;

  /// In-place union (Θ ← Θ ∪ Θ2) — the ledger's join path: one in-place
  /// StepFunction::add per type of `other`.
  void union_with(const ResourceSet& other);

  /// Θ1 \ Θ2 — the paper's relative complement. Defined only when every term
  /// of `other` is dominated by availability here; returns nullopt otherwise
  /// (equivalently: when subtraction would drive some rate negative).
  std::optional<ResourceSet> relative_complement(const ResourceSet& other) const;

  /// True iff this set can stand in for `other` everywhere (pointwise >=,
  /// per located type). The set-level counterpart of term domination.
  bool dominates(const ResourceSet& other) const;

  bool empty() const;

  /// The simplified terms — maximal constant-rate runs per located type,
  /// exactly what the paper's simplification rule produces.
  std::vector<ResourceTerm> terms() const;
  std::size_t term_count() const;

  /// Availability profile of one located type (zero function if absent).
  const StepFunction& availability(const LocatedType& type) const;

  std::vector<LocatedType> types() const;

  /// Allocation-free type iteration (`fn(const LocatedType&)`), in sorted
  /// order — the ledger's shard-footprint walk.
  template <typename Fn>
  void for_each_type(Fn&& fn) const {
    for (const auto& [type, profile] : by_type_) fn(type);
  }

  /// ⋃_s^d Θ restricted to a window (the f-function's left-hand side).
  ResourceSet restricted(const TimeInterval& window) const;

  /// restricted(window) keeping only types where `keep(type)` holds — the
  /// shard-filtered snapshot view: one pass, no intermediate full copy.
  template <typename Pred>
  ResourceSet restricted_if(const TimeInterval& window, Pred&& keep) const {
    ResourceSet out;
    out.by_type_.reserve(by_type_.size());
    for (const auto& [type, profile] : by_type_) {
      if (!keep(type)) continue;
      StepFunction r = profile.restricted(window);
      if (!r.is_zero()) out.by_type_.emplace_back(type, std::move(r));
    }
    return out;
  }

  /// Total quantity of `type` deliverable within `window`.
  Quantity quantity(const LocatedType& type, const TimeInterval& window) const;

  /// The paper's satisfaction function f(Θ, ρ(γ,s,d)) for a single demand
  /// set: every located quantity must be coverable within the window.
  bool satisfies(const DemandSet& demand, const TimeInterval& window) const;

  /// Drops all supply strictly before `t`, in place: the paper's expiration
  /// transition (resources in the past are gone). Types left with nothing are
  /// removed.
  void drop_before(Tick t);

  /// Conservative coarse-granularity view: every type's profile downsampled
  /// to `factor`-tick buckets at the bucket minimum (see
  /// StepFunction::coarsened). Reasoning against the result is sound for the
  /// original supply, at reduced precision and (on fragmented profiles)
  /// reduced cost.
  ResourceSet coarsened(Tick factor) const;

  /// Latest tick at which any supply exists; nullopt for an empty set.
  std::optional<Tick> horizon() const;

  bool operator==(const ResourceSet&) const = default;

  std::string to_string() const;

 private:
  using Entry = std::pair<LocatedType, StepFunction>;

  static const StepFunction& zero_function();

  /// Adds `profile` into the entry of `type` in place (StepFunction::add),
  /// creating the entry when the type is new and erasing it when the sum
  /// cancels to zero. The profile is moved in only when it is an rvalue.
  template <typename Profile>
  void splice(const LocatedType& type, Profile&& profile);

  /// Profile of `type`, or nullptr if absent.
  StepFunction* find(const LocatedType& type);
  const StepFunction* find(const LocatedType& type) const;

  std::vector<Entry> by_type_;  // sorted by type, unique, no zero functions
};

std::ostream& operator<<(std::ostream& os, const ResourceSet& s);

}  // namespace rota
