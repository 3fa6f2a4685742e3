#include "rota/cluster/digest.hpp"

#include <stdexcept>

namespace rota::cluster {

ResourceSet compact_hull(const ResourceSet& supply, std::size_t max_segments) {
  if (max_segments == 0) {
    throw std::invalid_argument("digest needs max_segments >= 1");
  }
  ResourceSet hull;
  for (const LocatedType& type : supply.types()) {
    StepFunction profile = supply.availability(type);
    // Coarsening can only merge segments, so doubling the bucket width
    // converges: a non-zero profile bottoms out at one segment.
    for (Tick factor = 2; profile.segments().size() > max_segments; factor *= 2) {
      profile = profile.coarsened(factor);
    }
    if (!profile.is_zero()) hull.add(type, std::move(profile));
  }
  return hull;
}

SupplyDigest make_digest(const CommitmentLedger& ledger, Location site,
                         Tick now, std::size_t max_segments) {
  SupplyDigest digest;
  digest.site = site;
  ResourceSet free = ledger.residual();
  free.drop_before(now);
  digest.free = compact_hull(free, max_segments);
  digest.revision = ledger.revision();
  digest.as_of = now;
  return digest;
}

}  // namespace rota::cluster
