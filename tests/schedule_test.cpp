// Tests for the Schedule type and its validation.
#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

TEST(Schedule, MakeScheduleHasNoCheckpoints) {
  const Schedule schedule = make_schedule({2, 0, 1});
  EXPECT_EQ(schedule.task_count(), 3u);
  EXPECT_EQ(schedule.checkpoint_count(), 0u);
  EXPECT_FALSE(schedule.is_checkpointed(0));
}

TEST(Schedule, CheckpointCountAndFlags) {
  Schedule schedule = make_schedule({0, 1, 2, 3});
  schedule.checkpointed[1] = 1;
  schedule.checkpointed[3] = 1;
  EXPECT_EQ(schedule.checkpoint_count(), 2u);
  EXPECT_TRUE(schedule.is_checkpointed(1));
  EXPECT_FALSE(schedule.is_checkpointed(2));
}

TEST(Schedule, PositionsInvertTheOrder) {
  const Schedule schedule = make_schedule({3, 1, 0, 2});
  const auto pos = schedule.positions();
  EXPECT_EQ(pos[3], 0u);
  EXPECT_EQ(pos[1], 1u);
  EXPECT_EQ(pos[0], 2u);
  EXPECT_EQ(pos[2], 3u);
  for (std::size_t i = 0; i < schedule.order.size(); ++i)
    EXPECT_EQ(pos[schedule.order[i]], i);
}

TEST(Schedule, ValidationAcceptsAnyLinearization) {
  const TaskGraph graph = make_paper_figure1(1.0);
  EXPECT_NO_THROW(validate_schedule(graph, make_schedule({0, 3, 1, 2, 4, 5, 6, 7})));
  EXPECT_NO_THROW(validate_schedule(graph, make_schedule({1, 2, 7, 0, 3, 4, 5, 6})));
}

TEST(Schedule, ValidationRejectsBadInputs) {
  const TaskGraph graph = make_paper_figure1(1.0);
  // Dependency violation: T3 before T0.
  EXPECT_THROW(validate_schedule(graph, make_schedule({3, 0, 1, 2, 4, 5, 6, 7})), ScheduleError);
  // Wrong order length.
  EXPECT_THROW(validate_schedule(graph, make_schedule({0, 1, 2})), ScheduleError);
  // Wrong flag vector length.
  Schedule bad_flags = make_schedule({0, 3, 1, 2, 4, 5, 6, 7});
  bad_flags.checkpointed.resize(4);
  EXPECT_THROW(validate_schedule(graph, bad_flags), ScheduleError);
  // Duplicate vertex in order.
  EXPECT_THROW(validate_schedule(graph, make_schedule({0, 0, 1, 2, 4, 5, 6, 7})), ScheduleError);
}

}  // namespace
}  // namespace fpsched
