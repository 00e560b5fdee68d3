#include "mdtask/fault/membership.h"

#include <algorithm>
#include <tuple>

#include "mdtask/common/rng.h"

namespace mdtask::fault {

const char* to_string(MembershipKind kind) noexcept {
  switch (kind) {
    case MembershipKind::kNodeJoin: return "node-join";
    case MembershipKind::kNodeLeave: return "node-leave";
  }
  return "?";
}

const char* to_string(DeparturePolicy policy) noexcept {
  switch (policy) {
    case DeparturePolicy::kEngineDefault: return "engine-default";
    case DeparturePolicy::kDrain: return "drain";
    case DeparturePolicy::kKill: return "kill";
  }
  return "?";
}

std::size_t MembershipPlan::joins() const noexcept {
  std::size_t n = 0;
  for (const MembershipEvent& ev : schedule) {
    if (ev.kind == MembershipKind::kNodeJoin) ++n;
  }
  return n;
}

std::size_t MembershipPlan::leaves() const noexcept {
  return schedule.size() - joins();
}

DeparturePolicy departure_for(EngineId engine,
                              DeparturePolicy policy) noexcept {
  // MPI has no mechanism to shed a rank gracefully: any shrink is a
  // kill, answered by checkpoint-restart of the lost work.
  if (engine == EngineId::kMpi) return DeparturePolicy::kKill;
  if (policy != DeparturePolicy::kEngineDefault) return policy;
  switch (engine) {
    case EngineId::kSpark:
      // Dynamic allocation decommissions executors; running tasks are
      // lost and recomputed from lineage.
      return DeparturePolicy::kKill;
    case EngineId::kDask:
    case EngineId::kRp:
    case EngineId::kService:
      // Dask's worker retirement, RP's pilot shrink and the serving
      // front end's drain protocol are graceful.
      return DeparturePolicy::kDrain;
    case EngineId::kMpi:
      break;
  }
  return DeparturePolicy::kKill;
}

namespace {

// The injector's avalanche, keyed on (seed, engine, stream, index)
// instead of (seed, engine, task, attempt): a pure function, so the
// schedule is independent of evaluation order and platform.
double membership_draw(std::uint64_t seed, EngineId engine,
                       std::uint32_t stream, std::uint64_t index) noexcept {
  std::uint64_t state = seed;
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(engine) + 1);
  splitmix64(state);
  state ^= index + 0xd1b54a32d192ed03ULL;
  splitmix64(state);
  state ^= (static_cast<std::uint64_t>(stream) << 32) | 0x5851f42dULL;
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

MembershipPlan churn_plan(std::uint64_t seed, EngineId engine,
                          std::size_t joins, std::size_t leaves,
                          double horizon_s, std::size_t count_per_event) {
  MembershipPlan plan;
  plan.seed = seed;
  plan.schedule.reserve(joins + leaves);
  for (std::size_t i = 0; i < joins; ++i) {
    plan.schedule.push_back({MembershipKind::kNodeJoin,
                             membership_draw(seed, engine, 0, i) * horizon_s,
                             count_per_event});
  }
  for (std::size_t i = 0; i < leaves; ++i) {
    plan.schedule.push_back({MembershipKind::kNodeLeave,
                             membership_draw(seed, engine, 1, i) * horizon_s,
                             count_per_event});
  }
  // Total order (time, kind, count): ties cannot depend on sort
  // stability quirks across platforms.
  std::sort(plan.schedule.begin(), plan.schedule.end(),
            [](const MembershipEvent& a, const MembershipEvent& b) {
              return std::tie(a.at_s, a.kind, a.count) <
                     std::tie(b.at_s, b.kind, b.count);
            });
  return plan;
}

}  // namespace mdtask::fault
