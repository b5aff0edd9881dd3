#include "broker/primary_engine.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"
#include "obs/slo.hpp"

namespace frame {

namespace {
/// Remaining slack until an absolute deadline (core/timing.hpp laxity —
/// the headroom value the SLO monitor bins).
Duration slack_until(TimePoint deadline, TimePoint now) {
  return laxity(deadline, now);
}
}  // namespace

PrimaryEngine::PrimaryEngine(BrokerConfig config, std::vector<TopicSpec> specs,
                             TimingParams params)
    : config_(config),
      specs_(std::move(specs)),
      params_(params),
      store_(config.message_buffer_capacity),
      queue_(config.scheduling) {
  timings_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    assert(specs_[i].id == static_cast<TopicId>(i) && "topic ids must be dense");
    timings_.push_back(compute_topic_timing(specs_[i], params_,
                                            config_.selective_replication));
  }
  subscribers_.resize(specs_.size());
  store_.configure(specs_.size());
  // Install the topic table in the SLO monitor so slack/loss hooks can
  // attribute to Li/Di.  Only when observability is live: the sim runs
  // tens of thousands of topics with obs off and must not pay the slots.
  if (obs::enabled()) obs::slo().configure(specs_);
}

void PrimaryEngine::subscribe(TopicId topic, NodeId subscriber) {
  if (topic >= subscribers_.size()) return;
  auto& subs = subscribers_[topic];
  if (std::find(subs.begin(), subs.end(), subscriber) == subs.end()) {
    subs.push_back(subscriber);
  }
}

void PrimaryEngine::generate_jobs(const Message& msg, TimePoint now,
                                  JobSource source, bool allow_replication) {
  const TopicTiming& timing = timings_[msg.topic];
  // The Job Generator subtracts the observed ΔPB = tp − tc from the pseudo
  // relative deadlines (Section IV-A) and stamps absolute deadlines tp + D.
  const Duration observed_delta_pb = now - msg.created_at;

  // Replicate job first: under FIFO ordering the baselines replicate and
  // then dispatch (Section VI-A); under EDF the deadline decides anyway.
  if (allow_replication && timing.replicate) {
    Job job;
    job.kind = JobKind::kReplicate;
    job.source = source;
    job.topic = msg.topic;
    job.seq = msg.seq;
    job.release = now;
    job.deadline = time_add(
        now, apply_observed_delta_pb(timing.replication_pseudo_deadline,
                                     observed_delta_pb));
    job.order = next_order_++;
    queue_.push(job);
    ++stats_.replicate_jobs_created;
    if (obs::enabled()) {
      obs::hooks::job_enqueue(msg.topic, msg.seq, now, /*replicate=*/true,
                              kDurationInfinite,
                              slack_until(job.deadline, now), msg.trace_id);
    }
    if (auto* entry = store_.find(msg.topic, msg.seq)) {
      entry->replicate_job_pending = true;
    }
  }

  Job job;
  job.kind = JobKind::kDispatch;
  job.source = source;
  job.topic = msg.topic;
  job.seq = msg.seq;
  job.release = now;
  job.deadline =
      time_add(now, apply_observed_delta_pb(timing.dispatch_pseudo_deadline,
                                            observed_delta_pb));
  job.order = next_order_++;
  queue_.push(job);
  ++stats_.dispatch_jobs_created;
  if (obs::enabled()) {
    obs::hooks::job_enqueue(msg.topic, msg.seq, now, /*replicate=*/false,
                            slack_until(job.deadline, now), kDurationInfinite,
                            msg.trace_id);
  }
}

void PrimaryEngine::on_publish(const Message& msg, TimePoint now,
                               bool allow_replication) {
  if (msg.topic >= specs_.size()) return;
  ++stats_.arrivals;
  if (obs::enabled()) {
    obs::hooks::proxy_admit(msg.topic, msg.seq, now, now - msg.created_at,
                            /*recovery=*/false, msg.trace_id);
  }
  Message stored = msg;
  stored.broker_arrival = now;
  if (auto evicted = store_.insert(stored)) {
    if (!evicted->dispatched) {
      ++stats_.overwritten_undelivered;
      obs::hooks::copy_dropped(evicted->msg.topic, evicted->msg.seq, now);
    }
  }
  generate_jobs(stored, now, JobSource::kMessageBuffer, allow_replication);
}

void PrimaryEngine::on_recovery_copy(const Message& msg, TimePoint now) {
  if (msg.topic >= specs_.size()) return;
  ++stats_.recovery_arrivals;
  if (obs::enabled()) {
    obs::hooks::proxy_admit(msg.topic, msg.seq, now, now - msg.created_at,
                            /*recovery=*/true, msg.trace_id);
  }
  Message stored = msg;
  stored.broker_arrival = now;
  stored.recovered = true;
  if (auto evicted = store_.insert(stored)) {
    if (!evicted->dispatched) {
      ++stats_.overwritten_undelivered;
      obs::hooks::copy_dropped(evicted->msg.topic, evicted->msg.seq, now);
    }
  }
  // Jobs reference the Backup Buffer and never create replication: the
  // promoted Backup has no Backup of its own (Section IV-A).
  generate_jobs(stored, now, JobSource::kBackupBuffer,
                /*allow_replication=*/false);
}

std::optional<Job> PrimaryEngine::next_job() { return queue_.pop(); }

DispatchEffect PrimaryEngine::execute_dispatch(const Job& job,
                                               TimePoint now) {
  DispatchEffect effect;
  StoredMessage* entry = store_.find(job.topic, job.seq);
  if (entry == nullptr) {
    ++stats_.stale_jobs;
    obs::hooks::copy_dropped(job.topic, job.seq, now);
    return effect;
  }
  // Table 3, Dispatch: (1) dispatch to the subscriber(s).
  effect.executed = true;
  effect.msg = entry->msg;
  effect.subscribers = subscribers_[job.topic];
  // (2) set Dispatched to True.
  entry->dispatched = true;
  ++stats_.dispatches_executed;
  if (obs::enabled()) {
    obs::hooks::dispatch_executed(job.topic, job.seq, now,
                                  slack_until(job.deadline, now),
                                  entry->msg.trace_id);
  }
  if (config_.coordination) {
    if (entry->replicated) {
      // (3) if Replicated, request the Backup to set Discard to True.
      effect.prune_backup = true;
      effect.coordinated = true;
      ++stats_.prune_requests;
    } else if (entry->replicate_job_pending) {
      // Section IV-B: cancel the pending replication job, if any.
      queue_.cancel_replication(job.topic, job.seq);
      entry->replicate_job_pending = false;
      effect.coordinated = true;
      ++stats_.replicate_jobs_cancelled;
    }
  }
  return effect;
}

ReplicateEffect PrimaryEngine::execute_replicate(const Job& job,
                                                 TimePoint now) {
  ReplicateEffect effect;
  StoredMessage* entry = store_.find(job.topic, job.seq);
  if (entry == nullptr) {
    ++stats_.stale_jobs;
    obs::hooks::copy_dropped(job.topic, job.seq, now);
    return effect;
  }
  entry->replicate_job_pending = false;
  // Table 3, Replicate: (1) if Dispatched is True, abort.
  if (config_.coordination && entry->dispatched) {
    effect.aborted_dispatched = true;
    ++stats_.replications_aborted;
    return effect;
  }
  // (2) replicate the message to the Backup; (3) set Replicated to True.
  effect.executed = true;
  effect.msg = entry->msg;
  entry->replicated = true;
  ++stats_.replications_executed;
  if (obs::enabled()) {
    obs::hooks::replicate_executed(job.topic, job.seq, now,
                                   slack_until(job.deadline, now),
                                   entry->msg.trace_id);
  }
  return effect;
}

std::vector<Message> PrimaryEngine::backup_sync_set() {
  std::vector<Message> sync;
  store_.for_each([&](StoredMessage& entry) {
    if (entry.dispatched) return;
    if (entry.msg.topic >= timings_.size()) return;
    if (!timings_[entry.msg.topic].replicate) return;
    entry.replicated = true;
    sync.push_back(entry.msg);
  });
  return sync;
}

}  // namespace frame
