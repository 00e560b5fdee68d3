#include "mdtask/service/batcher.h"

namespace mdtask::service {

EngineJob Batcher::seal(BatchKey key, Open&& open) {
  EngineJob job;
  job.job_id = ++next_job_;
  job.store_fingerprint = key.first;
  job.family = static_cast<AnalysisFamily>(key.second);
  job.deadline_s = open.job_deadline_s;
  job.requests = std::move(open.requests);
  pending_ -= job.requests.size() <= pending_ ? job.requests.size()
                                              : pending_;
  return job;
}

std::optional<EngineJob> Batcher::add(AnalysisRequest request,
                                      double now_s) {
  const BatchKey key{request.store_fingerprint,
                     static_cast<std::uint8_t>(request.family)};
  const double member_deadline = request.deadline_s;
  if (!config_.enabled || config_.max_batch <= 1) {
    Open single;
    single.job_deadline_s = member_deadline;
    single.requests.push_back(std::move(request));
    ++pending_;
    return seal(key, std::move(single));
  }
  auto [it, inserted] = open_.try_emplace(key);
  if (inserted) it->second.deadline_s = now_s + config_.max_delay_s;
  Open& open = it->second;
  if (member_deadline > 0.0) {
    // The batch must answer its tightest member: the job inherits the
    // minimum absolute deadline, and the delay window never outwaits it.
    if (open.job_deadline_s == 0.0 ||
        member_deadline < open.job_deadline_s) {
      open.job_deadline_s = member_deadline;
    }
    if (member_deadline < open.deadline_s) {
      open.deadline_s = member_deadline;
    }
  }
  open.requests.push_back(std::move(request));
  ++pending_;
  if (it->second.requests.size() >= config_.max_batch) {
    Open full = std::move(it->second);
    open_.erase(it);
    return seal(key, std::move(full));
  }
  return std::nullopt;
}

std::vector<EngineJob> Batcher::due(double now_s) {
  std::vector<EngineJob> jobs;
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.deadline_s <= now_s) {
      jobs.push_back(seal(it->first, std::move(it->second)));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  return jobs;
}

std::optional<double> Batcher::next_deadline() const {
  std::optional<double> earliest;
  for (const auto& [key, open] : open_) {
    if (!earliest || open.deadline_s < *earliest) {
      earliest = open.deadline_s;
    }
  }
  return earliest;
}

std::vector<EngineJob> Batcher::flush_all() {
  std::vector<EngineJob> jobs;
  for (auto& [key, open] : open_) {
    jobs.push_back(seal(key, std::move(open)));
  }
  open_.clear();
  return jobs;
}

std::size_t Batcher::pending() const {
  return pending_;
}

std::size_t Batcher::open_batches() const {
  return open_.size();
}

std::uint64_t Batcher::jobs() const {
  return next_job_;
}

}  // namespace mdtask::service
