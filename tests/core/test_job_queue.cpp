// EDF Job Queue tests: ordering under both policies, tie-breaking, and the
// lazy cancellation used by dispatch-replicate coordination.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/job_queue.hpp"
#include "obs/obs.hpp"

namespace frame {
namespace {

Job make_job(JobKind kind, TopicId topic, SeqNo seq, TimePoint deadline,
             std::uint64_t order) {
  Job job;
  job.kind = kind;
  job.topic = topic;
  job.seq = seq;
  job.release = 0;
  job.deadline = deadline;
  job.order = order;
  return job;
}

TEST(JobQueue, EdfPopsEarliestDeadlineFirst) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kDispatch, 1, 1, milliseconds(30), 0));
  queue.push(make_job(JobKind::kDispatch, 2, 1, milliseconds(10), 1));
  queue.push(make_job(JobKind::kDispatch, 3, 1, milliseconds(20), 2));
  EXPECT_EQ(queue.pop()->topic, 2u);
  EXPECT_EQ(queue.pop()->topic, 3u);
  EXPECT_EQ(queue.pop()->topic, 1u);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueue, EdfBreaksTiesByArrivalOrder) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kDispatch, 7, 1, milliseconds(10), 5));
  queue.push(make_job(JobKind::kDispatch, 8, 1, milliseconds(10), 4));
  EXPECT_EQ(queue.pop()->topic, 8u);
  EXPECT_EQ(queue.pop()->topic, 7u);
}

TEST(JobQueue, FifoIgnoresDeadlines) {
  JobQueue queue(SchedulingPolicy::kFifo);
  queue.push(make_job(JobKind::kDispatch, 1, 1, milliseconds(99), 0));
  queue.push(make_job(JobKind::kDispatch, 2, 1, milliseconds(1), 1));
  EXPECT_EQ(queue.pop()->topic, 1u);
  EXPECT_EQ(queue.pop()->topic, 2u);
}

TEST(JobQueue, CancelledReplicationIsSkipped) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kReplicate, 1, 5, milliseconds(1), 0));
  queue.push(make_job(JobKind::kDispatch, 1, 5, milliseconds(2), 1));
  queue.cancel_replication(1, 5);
  const auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->kind, JobKind::kDispatch);
  EXPECT_EQ(queue.cancelled_drops(), 1u);
}

TEST(JobQueue, CancellationDoesNotAffectDispatchJobs) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kDispatch, 1, 5, milliseconds(1), 0));
  queue.cancel_replication(1, 5);
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_EQ(queue.cancelled_drops(), 0u);
}

TEST(JobQueue, CancellationOnlyHitsMatchingSeq) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kReplicate, 1, 5, milliseconds(1), 0));
  queue.push(make_job(JobKind::kReplicate, 1, 6, milliseconds(2), 1));
  queue.cancel_replication(1, 5);
  const auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->seq, 6u);
}

TEST(JobQueue, PeekSkipsCancelledWithoutRemovingRunnable) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kReplicate, 1, 1, milliseconds(1), 0));
  queue.push(make_job(JobKind::kDispatch, 2, 1, milliseconds(5), 1));
  queue.cancel_replication(1, 1);
  const auto peeked = queue.peek();
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->topic, 2u);
  EXPECT_EQ(queue.pop()->topic, 2u);
}

TEST(JobQueue, EmptyAccountsForCancelled) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kReplicate, 3, 9, milliseconds(1), 0));
  queue.cancel_replication(3, 9);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueue, ClearRemovesEverything) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kDispatch, 1, 1, milliseconds(1), 0));
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.raw_size(), 0u);
}

// Property: popping everything from an EDF queue yields deadlines in
// non-decreasing order, whatever the insertion order.
class JobQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JobQueueProperty, EdfDrainIsSortedByDeadline) {
  Rng rng(GetParam());
  JobQueue queue(SchedulingPolicy::kEdf);
  for (std::uint64_t i = 0; i < 500; ++i) {
    queue.push(make_job(JobKind::kDispatch, static_cast<TopicId>(i % 17),
                        i, static_cast<TimePoint>(rng.next_below(1000000)),
                        i));
  }
  TimePoint last = -1;
  while (auto job = queue.pop()) {
    EXPECT_GE(job->deadline, last);
    last = job->deadline;
  }
}

TEST_P(JobQueueProperty, FifoDrainIsSortedByOrder) {
  Rng rng(GetParam());
  JobQueue queue(SchedulingPolicy::kFifo);
  for (std::uint64_t i = 0; i < 500; ++i) {
    queue.push(make_job(JobKind::kDispatch, 0, i,
                        static_cast<TimePoint>(rng.next_below(1000000)), i));
  }
  std::uint64_t expected = 0;
  while (auto job = queue.pop()) {
    EXPECT_EQ(job->order, expected++);
  }
}

TEST_P(JobQueueProperty, RandomCancellationsDropExactlyMatchingReplicas) {
  Rng rng(GetParam());
  JobQueue queue(SchedulingPolicy::kEdf);
  std::vector<SeqNo> cancelled;
  for (SeqNo seq = 1; seq <= 200; ++seq) {
    queue.push(make_job(JobKind::kReplicate, 1, seq,
                        static_cast<TimePoint>(rng.next_below(1000)), seq));
    if (rng.next_double() < 0.3) cancelled.push_back(seq);
  }
  for (const SeqNo seq : cancelled) queue.cancel_replication(1, seq);
  std::vector<SeqNo> popped;
  while (auto job = queue.pop()) popped.push_back(job->seq);
  EXPECT_EQ(popped.size(), 200 - cancelled.size());
  for (const SeqNo seq : cancelled) {
    EXPECT_EQ(std::count(popped.begin(), popped.end(), seq), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobQueueProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

// Regression: cancelled-replication drops (and clear()) used to bypass the
// depth hook, so frame_job_queue_depth went stale until the next push/pop.
TEST(JobQueue, DepthGaugeTracksCancelledDropsAndClear) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  obs::EnabledScope scope(true);
  obs::reset_all();
  auto& gauge = obs::registry().gauge("frame_job_queue_depth");

  JobQueue queue(SchedulingPolicy::kEdf);
  for (SeqNo seq = 1; seq <= 3; ++seq) {
    queue.push(make_job(JobKind::kReplicate, 1, seq, milliseconds(seq), seq));
  }
  queue.push(make_job(JobKind::kDispatch, 1, 4, milliseconds(4), 4));
  EXPECT_EQ(gauge.value(), 4);

  // Two cancelled replicate jobs are dropped lazily by the next pop; the
  // gauge must follow the heap through every drop.
  queue.cancel_replication(1, 1);
  queue.cancel_replication(1, 2);
  const auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->seq, 3u);
  EXPECT_EQ(queue.raw_size(), 1u);
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(queue.raw_size()));

  queue.clear();
  EXPECT_EQ(gauge.value(), 0);
}

// Regression: cancel_replication used to insert its key unconditionally,
// so cancelling after the replicate job had already been popped (the
// worker-pool race: one lane pops the replicate job while another lane's
// dispatch still sees it as pending) grew cancelled_ forever.  Under a
// dispatch-then-cancel churn loop the set must stay bounded by the
// replicate jobs actually still queued.
TEST(JobQueue, CancelledSetStaysBoundedUnderDispatchThenCancelChurn) {
  JobQueue queue(SchedulingPolicy::kEdf);
  for (SeqNo seq = 1; seq <= 10000; ++seq) {
    queue.push(make_job(JobKind::kReplicate, 1, seq, milliseconds(1), 2 * seq));
    queue.push(make_job(JobKind::kDispatch, 1, seq, milliseconds(2),
                        2 * seq + 1));
    // Drain both jobs first (the replicate job was "executed"), THEN the
    // dispatch path cancels — exactly the ordering that leaked.
    ASSERT_TRUE(queue.pop().has_value());
    ASSERT_TRUE(queue.pop().has_value());
    queue.cancel_replication(1, seq);
    EXPECT_EQ(queue.cancelled_size(), 0u);
    EXPECT_EQ(queue.pending_replicate_keys(), 0u);
  }
}

// Cancelling a key that never had a replicate job (selective replication
// suppressed it at generation time) must not grow the set either.
TEST(JobQueue, CancelWithoutReplicateJobIsANoOp) {
  JobQueue queue(SchedulingPolicy::kEdf);
  for (SeqNo seq = 1; seq <= 100; ++seq) {
    queue.cancel_replication(7, seq);
  }
  EXPECT_EQ(queue.cancelled_size(), 0u);

  // ...and a real pending replicate job still cancels exactly as before.
  queue.push(make_job(JobKind::kReplicate, 7, 1, milliseconds(1), 0));
  queue.cancel_replication(7, 1);
  EXPECT_EQ(queue.cancelled_size(), 1u);
  EXPECT_TRUE(queue.empty());  // lazy drop via peek
  EXPECT_EQ(queue.cancelled_size(), 0u);
  EXPECT_EQ(queue.cancelled_drops(), 1u);
}

// clear() purges the cancelled set and the pending-replicate index along
// with the heap, so a restarted queue starts from zero state.
TEST(JobQueue, ClearPurgesCancelledAndPendingState) {
  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kReplicate, 3, 1, milliseconds(1), 0));
  queue.push(make_job(JobKind::kReplicate, 3, 2, milliseconds(2), 1));
  queue.cancel_replication(3, 1);
  EXPECT_EQ(queue.cancelled_size(), 1u);
  EXPECT_EQ(queue.pending_replicate_keys(), 2u);
  queue.clear();
  EXPECT_EQ(queue.cancelled_size(), 0u);
  EXPECT_EQ(queue.pending_replicate_keys(), 0u);
  // A post-clear cancel for a pre-clear key is a no-op, not a leak.
  queue.cancel_replication(3, 2);
  EXPECT_EQ(queue.cancelled_size(), 0u);
}

// peek() also performs lazy drops; a fully-cancelled queue must report
// depth 0 after a peek even though no pop ever ran.
TEST(JobQueue, DepthGaugeTracksDropsDuringPeek) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  obs::EnabledScope scope(true);
  obs::reset_all();
  auto& gauge = obs::registry().gauge("frame_job_queue_depth");

  JobQueue queue(SchedulingPolicy::kEdf);
  queue.push(make_job(JobKind::kReplicate, 2, 9, milliseconds(1), 1));
  EXPECT_EQ(gauge.value(), 1);
  queue.cancel_replication(2, 9);
  EXPECT_FALSE(queue.peek().has_value());
  EXPECT_EQ(queue.raw_size(), 0u);
  EXPECT_EQ(gauge.value(), 0);
}

}  // namespace
}  // namespace frame
