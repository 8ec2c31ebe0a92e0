#include "coh/coh.hh"

#include <bit>

#include "common/logging.hh"
#include "snap/snap.hh"

namespace sst
{

CohAction
Directory::onAccess(Addr line, unsigned core, bool isStore)
{
    CohAction act;
    const std::uint64_t bit = std::uint64_t{1} << core;
    auto it = lines_.find(line);

    if (it == lines_.end()) {
        // Uncached: first touch goes straight to Exclusive (MESI E on a
        // read; no other copies exist, so no traffic either way).
        lines_[line] = CohLine{0, static_cast<int>(core)};
        return act;
    }

    CohLine &st = it->second;
    if (st.owner >= 0) {
        if (st.owner == static_cast<int>(core))
            return act; // silent E/M hit, and E->M is traffic-free
        // Another core owns the line: its copy may be dirty, so every
        // transfer is modelled as an intervention.
        act.intervention = true;
        act.latency += params_.interventionLatency;
        ++interventions_;
        if (isStore) {
            act.invalidateMask = std::uint64_t{1}
                                 << static_cast<unsigned>(st.owner);
            act.latency += params_.invalidateLatency;
            invalidations_ += 1;
            st = CohLine{0, static_cast<int>(core)};
        } else {
            st.sharers = (std::uint64_t{1}
                          << static_cast<unsigned>(st.owner))
                         | bit;
            st.owner = -1;
        }
        return act;
    }

    // Shared.
    if (!isStore) {
        st.sharers |= bit;
        return act;
    }
    std::uint64_t victims = st.sharers & ~bit;
    if (victims != 0) {
        act.invalidateMask = victims;
        act.latency += params_.invalidateLatency;
        invalidations_ +=
            static_cast<std::uint64_t>(std::popcount(victims));
    }
    if ((st.sharers & bit) != 0) {
        act.upgrade = true;
        act.latency += params_.upgradeLatency;
        ++upgrades_;
    }
    st = CohLine{0, static_cast<int>(core)};
    return act;
}

void
Directory::onEvict(Addr line, unsigned core)
{
    auto it = lines_.find(line);
    if (it == lines_.end())
        return;
    CohLine &st = it->second;
    const std::uint64_t bit = std::uint64_t{1} << core;
    if (st.owner == static_cast<int>(core))
        st.owner = -1;
    st.sharers &= ~bit;
    if (st.owner < 0 && st.sharers == 0)
        lines_.erase(it);
}

void
Directory::dropCore(unsigned core)
{
    const std::uint64_t bit = std::uint64_t{1} << core;
    for (auto it = lines_.begin(); it != lines_.end();) {
        CohLine &st = it->second;
        if (st.owner == static_cast<int>(core))
            st.owner = -1;
        st.sharers &= ~bit;
        if (st.owner < 0 && st.sharers == 0)
            it = lines_.erase(it);
        else
            ++it;
    }
}

CohLine
Directory::lineState(Addr line) const
{
    auto it = lines_.find(line);
    return it == lines_.end() ? CohLine{} : it->second;
}

void
Directory::io(snap::Archive &ar)
{
    ar.tag("coh-dir");
    ar.sortedMap<std::uint64_t>(lines_, "directory line", [&](CohLine &st) {
        ar.u64(st.sharers);
        ar.i32(st.owner);
    });
    ar.u64(invalidations_);
    ar.u64(interventions_);
    ar.u64(upgrades_);
}

} // namespace sst
