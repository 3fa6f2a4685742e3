#include "rota/resource/resource_set.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace rota {

namespace {

struct EntryTypeLess {
  bool operator()(const std::pair<LocatedType, StepFunction>& e,
                  const LocatedType& t) const {
    return e.first < t;
  }
};

}  // namespace

const StepFunction& ResourceSet::zero_function() {
  static const StepFunction zero;
  return zero;
}

StepFunction* ResourceSet::find(const LocatedType& type) {
  auto it = std::lower_bound(by_type_.begin(), by_type_.end(), type, EntryTypeLess{});
  if (it == by_type_.end() || !(it->first == type)) return nullptr;
  return &it->second;
}

const StepFunction* ResourceSet::find(const LocatedType& type) const {
  return const_cast<ResourceSet*>(this)->find(type);
}

void ResourceSet::add(const ResourceTerm& term) {
  if (!term.is_null()) add(term.type(), StepFunction(term.interval(), term.rate()));
}

void ResourceSet::add(const LocatedType& type, StepFunction profile) {
  splice(type, std::move(profile));
}

template <typename Profile>
void ResourceSet::splice(const LocatedType& type, Profile&& profile) {
  if (profile.is_zero()) return;
  auto it = std::lower_bound(by_type_.begin(), by_type_.end(), type, EntryTypeLess{});
  if (it != by_type_.end() && it->first == type) {
    it->second.add(profile);
    // Opposite-sign profiles can cancel exactly; keep the no-zero-profiles
    // invariant.
    if (it->second.is_zero()) by_type_.erase(it);
  } else {
    by_type_.emplace(it, type, std::forward<Profile>(profile));
  }
}

ResourceSet ResourceSet::unioned(const ResourceSet& other) const& {
  ResourceSet out = *this;
  out.union_with(other);
  return out;
}

ResourceSet ResourceSet::unioned(const ResourceSet& other) && {
  union_with(other);
  return std::move(*this);
}

void ResourceSet::union_with(const ResourceSet& other) {
  for (const auto& [type, profile] : other.by_type_) splice(type, profile);
}

std::optional<ResourceSet> ResourceSet::relative_complement(
    const ResourceSet& other) const {
  ResourceSet out;
  out.by_type_.reserve(by_type_.size());
  // A type absent on either side is the zero function. A negative profile
  // only this set mentions makes the complement undefined; a type only
  // `other` mentions is subtracted from zero (defined iff 0 dominates it,
  // and 0 - b may itself be a non-zero profile).
  auto subtract = [&out](const LocatedType& type, const StepFunction& have,
                         const StepFunction& take) {
    std::optional<StepFunction> diff = have.minus_if_dominated(take);
    if (!diff) return false;  // not dominated: undefined
    if (!diff->is_zero()) out.by_type_.emplace_back(type, std::move(*diff));
    return true;
  };
  auto a = by_type_.begin();
  auto b = other.by_type_.begin();
  while (a != by_type_.end() || b != other.by_type_.end()) {
    if (b == other.by_type_.end() ||
        (a != by_type_.end() && a->first < b->first)) {
      if (a->second.min_value() < 0) return std::nullopt;
      out.by_type_.push_back(*a++);
    } else if (a == by_type_.end() || b->first < a->first) {
      if (!subtract(b->first, zero_function(), b->second)) return std::nullopt;
      ++b;
    } else {
      if (!subtract(a->first, a->second, b->second)) return std::nullopt;
      ++a;
      ++b;
    }
  }
  return out;
}

bool ResourceSet::dominates(const ResourceSet& other) const {
  // Pointwise over the union of mentioned types: a type absent on either
  // side is the zero function, so a negative profile here loses even against
  // a type `other` never mentions.
  auto a = by_type_.begin();
  auto b = other.by_type_.begin();
  while (a != by_type_.end() || b != other.by_type_.end()) {
    if (b == other.by_type_.end() ||
        (a != by_type_.end() && a->first < b->first)) {
      if (a->second.min_value() < 0) return false;
      ++a;
    } else if (a == by_type_.end() || b->first < a->first) {
      if (!zero_function().dominates(b->second)) return false;
      ++b;
    } else {
      if (!a->second.dominates(b->second)) return false;
      ++a;
      ++b;
    }
  }
  return true;
}

bool ResourceSet::empty() const {
  for (const auto& [type, profile] : by_type_) {
    if (!profile.is_zero()) return false;
  }
  return true;
}

std::vector<ResourceTerm> ResourceSet::terms() const {
  std::vector<ResourceTerm> out;
  out.reserve(term_count());
  for (const auto& [type, profile] : by_type_) {
    for (const auto& seg : profile.segments()) {
      out.emplace_back(seg.value, seg.interval, type);
    }
  }
  return out;
}

std::size_t ResourceSet::term_count() const {
  std::size_t n = 0;
  for (const auto& [type, profile] : by_type_) n += profile.segments().size();
  return n;
}

const StepFunction& ResourceSet::availability(const LocatedType& type) const {
  const StepFunction* f = find(type);
  return f == nullptr ? zero_function() : *f;
}

std::vector<LocatedType> ResourceSet::types() const {
  std::vector<LocatedType> out;
  out.reserve(by_type_.size());
  for (const auto& [type, profile] : by_type_) out.push_back(type);
  return out;
}

ResourceSet ResourceSet::restricted(const TimeInterval& window) const {
  ResourceSet out;
  out.by_type_.reserve(by_type_.size());
  for (const auto& [type, profile] : by_type_) {
    StepFunction r = profile.restricted(window);
    if (!r.is_zero()) out.by_type_.emplace_back(type, std::move(r));
  }
  return out;
}

Quantity ResourceSet::quantity(const LocatedType& type,
                               const TimeInterval& window) const {
  return availability(type).integral(window);
}

bool ResourceSet::satisfies(const DemandSet& demand,
                            const TimeInterval& window) const {
  for (const auto& [type, q] : demand.amounts()) {
    if (quantity(type, window) < q) return false;
  }
  return true;
}

void ResourceSet::drop_before(Tick t) {
  std::erase_if(by_type_, [t](Entry& e) {
    e.second.drop_before(t);
    return e.second.is_zero();
  });
}

ResourceSet ResourceSet::coarsened(Tick factor) const {
  ResourceSet out;
  out.by_type_.reserve(by_type_.size());
  for (const auto& [type, profile] : by_type_) {
    StepFunction coarse = profile.coarsened(factor);
    if (!coarse.is_zero()) out.by_type_.emplace_back(type, std::move(coarse));
  }
  return out;
}

std::optional<Tick> ResourceSet::horizon() const {
  std::optional<Tick> latest;
  for (const auto& [type, profile] : by_type_) {
    if (profile.is_zero()) continue;
    const Tick end = profile.segments().back().interval.end();
    if (!latest || end > *latest) latest = end;
  }
  return latest;
}

std::string ResourceSet::to_string() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& term : terms()) {
    if (!first) out << ", ";
    out << term.to_string();
    first = false;
  }
  out << '}';
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const ResourceSet& s) {
  return os << s.to_string();
}

}  // namespace rota
