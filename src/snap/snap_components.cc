/**
 * @file
 * io() definitions for classes that live in the common library.
 *
 * The bodies live here (in sst_snap, which links sst_common) rather than
 * in stats.cc/rng.cc so that sst_common never references snap symbols —
 * keeping the static-library dependency graph acyclic.
 */

#include "common/rng.hh"
#include "common/stats.hh"
#include "snap/snap.hh"

namespace sst
{

void
Rng::io(snap::Archive &ar)
{
    for (std::uint64_t &word : state_)
        ar.u64(word);
}

void
Distribution::io(snap::Archive &ar)
{
    ar.fixed(buckets_, "distribution bucket count",
             [&](std::uint64_t &b) { ar.u64(b); });
    ar.check<std::uint64_t>(width_, "distribution bucket width");
    ar.u64(count_);
    ar.u64(sum_);
    ar.u64(overflow_);
    ar.u64(maxSample_);
}

void
StatGroup::io(snap::Archive &ar)
{
    ar.tag("statgroup");
    ar.check(name_, "stat group");
    const std::string scalar = "scalar in stat group '" + name_ + "'";
    const std::string dist = "distribution in stat group '" + name_ + "'";
    ar.fixed(scalars_, scalar + " count", [&](NamedScalar *s) {
        ar.check(s->name, scalar);
        std::uint64_t v = s->stat.value();
        ar.u64(v);
        s->stat.set(v);
    });
    ar.fixed(dists_, dist + " count", [&](NamedDist *d) {
        ar.check(d->name, dist);
        d->stat.io(ar);
    });
    ar.fixed(children_, "child count of stat group '" + name_ + "'",
             [&](StatGroup *c) { c->io(ar); });
}

} // namespace sst
